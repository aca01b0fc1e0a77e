package enact

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// The enactment write-ahead log. Every successful state-changing
// operation appends one typed record to <StateDir>/enact.wal; on
// restart the records are replayed (see recover.go) to rebuild the
// engine's in-memory state. The log is logical (command redo): a record
// names the operation and its inputs, and replay re-executes the public
// operation, so every recovered state is reachable — and therefore
// legal — by construction.
//
// The WAL is a record codec over a journal.Log: records are staged
// while the originating operation still holds its stripe lock (so file
// order equals operation order) and group-committed after the lock is
// released. The operation's events are delivered to observers only
// after its commit group lands — no notification ever refers to an
// unjournaled change.

// WAL record kinds, one per state-changing engine operation plus the
// context field mutation journaled via core.Registry's logger hook.
const (
	walStartProcess     = "start_process"
	walInstantiate      = "instantiate"
	walAssign           = "assign"
	walStart            = "start"
	walComplete         = "complete"
	walTerminate        = "terminate"
	walSuspend          = "suspend"
	walResume           = "resume"
	walTransition       = "transition"
	walTerminateProcess = "terminate_process"
	walAddActivity      = "add_activity"
	walAddDependency    = "add_dependency"
	walSetField         = "set_field"
)

// A walRecord is one journaled operation. G carries the outcomes of the
// guard evaluations the operation performed, in evaluation order; replay
// consumes them instead of re-evaluating, which keeps replay independent
// of set_field records that raced the operation. Fam is the family root
// and PID, AIDs and CIDs the exact ids the operation drew, so replay
// re-draws them without touching the shared counters and can re-execute
// unrelated families concurrently.
type walRecord struct {
	Seq  int64
	Kind string
	User string

	Proc   string
	Act    string
	Var    string
	Schema string
	Inputs map[string]string
	To     string

	Ctx   string
	Field string
	Value *core.WireValue

	AV     *walActivityVar
	Enable bool
	Dep    *walDependency
	Defs   *walSchemaTable

	G []bool

	Fam  string
	PID  int
	AIDs []int
	CIDs []int
}

// WALOptions configure the enactment journal.
type WALOptions struct {
	// Sync fsyncs every commit group, making journaled operations
	// durable against machine crashes rather than only process crashes.
	Sync bool
	// Metrics receives the WAL's instruments; nil disables them.
	Metrics *obs.Registry
	// FS is the filesystem the journal lives on; nil means the real
	// one. Tests and the chaos oracle inject storage faults here.
	FS fs.FS
}

type walMetrics struct {
	appends      *obs.Counter
	snapshots    *obs.Counter
	snapshotTime *obs.Histogram
	encode       *obs.Histogram
}

// A WAL is the enactment write-ahead log writer.
type WAL struct {
	log  *journal.Log[struct{}]
	fsys fs.FS

	// mu orders sequence assignment with staging, so sequence order is
	// file order; encBuf is the encode scratch it guards.
	mu     sync.Mutex
	seq    int64
	encBuf []byte

	// sinceSnap counts records staged since the last snapshot; the
	// engine reads it to decide when to compact.
	sinceSnap atomic.Int64

	m *walMetrics
}

// OpenWAL opens (creating if necessary) the enactment journal at path
// for appending. Records are read by Engine.Recover, before the WAL is
// opened; the open only checks frames, truncating a torn tail and
// opening a corrupt journal poisoned (see journal.Open).
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	log, _, err := journal.Open[struct{}](path, journal.Options[struct{}]{FS: opts.FS, Sync: opts.Sync}, nil)
	if err != nil {
		return nil, fmt.Errorf("enact: open wal: %w", err)
	}
	w := &WAL{log: log, fsys: fs.Or(opts.FS)}
	if opts.Metrics != nil {
		w.m = &walMetrics{
			appends: opts.Metrics.Counter("cmi_enact_wal_appends_total",
				"Operations appended to the enactment write-ahead log."),
			snapshots: opts.Metrics.Counter("cmi_enact_snapshots_total",
				"Snapshot+truncate compactions of the enactment journal."),
			snapshotTime: opts.Metrics.Histogram("cmi_enact_snapshot_seconds",
				"Time to write one enactment snapshot and truncate the journal.", nil),
			encode: wire.Instrument(opts.Metrics),
		}
		opts.Metrics.GaugeFunc("cmi_enact_wal_poisoned",
			"1 when a failed write or fsync has poisoned the enactment WAL (all further operations refused).",
			func() float64 {
				if w.Poisoned() {
					return 1
				}
				return 0
			})
	}
	return w, nil
}

// Poisoned reports whether a failed commit write or fsync has
// permanently poisoned the WAL. A poisoned WAL refuses every further
// operation; the process must be restarted (recovery replays the
// journal's durable prefix) after the underlying disk fault is fixed.
func (w *WAL) Poisoned() bool { return w.log.Poisoned() }

// Poison marks the WAL permanently unusable with the given error —
// every further stage and truncate fails with it. The system layer
// calls this when recovery finds mid-journal corruption: appending
// past the damage would assign sequence numbers the unreachable
// suffix already used, so the journal must stay read-only (and
// uncompacted, preserving the evidence for fsck).
func (w *WAL) Poison(err error) { w.log.Poison(err) }

// SetSeq forces the sequence counter; recovery calls it with the
// highest sequence observed in the snapshot and journal so fresh
// records continue the numbering.
func (w *WAL) SetSeq(seq int64) {
	w.mu.Lock()
	if seq > w.seq {
		w.seq = seq
	}
	w.mu.Unlock()
}

// SetBacklog seeds the since-snapshot record counter with the journal
// tail that recovery just replayed. Without this, a process that
// crash-loops with fewer than snapEvery fresh records per incarnation
// restarts the counter from zero each boot and never compacts, so the
// journal — and recovery time — grow without bound across restarts.
func (w *WAL) SetBacklog(n int64) {
	if n > 0 {
		w.sinceSnap.Store(n)
	}
}

// Seq returns the last staged sequence number.
func (w *WAL) Seq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Path returns the journal file path.
func (w *WAL) Path() string { return w.log.Path() }

// A walCommit is the handle an operation holds between staging its
// record (under the engine lock) and waiting for the record's commit
// group to land (after releasing it). The zero value waits for nothing
// — used when no WAL is attached or the engine is replaying.
type walCommit = journal.Ticket[struct{}]

// stage encodes the record, assigns it the next sequence number and
// adds it to the open commit group. Callers stage while holding the
// engine (or context registry) lock, so sequence order equals
// operation order equals file order.
func (w *WAL) stage(rec *walRecord) (walCommit, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.Seq = w.seq + 1
	var t0 time.Time
	if w.m != nil {
		t0 = time.Now()
	}
	enc, err := appendWALRecord(w.encBuf[:0], rec)
	if err != nil {
		return walCommit{}, fmt.Errorf("enact: encode wal record: %w", err)
	}
	w.encBuf = enc
	c, err := w.log.StageRecord(enc)
	if err != nil {
		return walCommit{}, err
	}
	w.seq++
	w.sinceSnap.Add(1)
	if w.m != nil {
		w.m.encode.Observe(time.Since(t0))
		w.m.appends.Inc()
	}
	return c, nil
}

// Barrier waits for every staged record to be durably written and
// returns the sequence number of the last one. A snapshot taken after
// Barrier with this sequence as its high-water mark covers every
// journaled engine operation.
func (w *WAL) Barrier() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.Barrier()
	return w.seq
}

// TruncateThrough rewrites the journal keeping only records with a
// sequence greater than lastSeq — those staged after the snapshot's
// high-water mark (late set_field stragglers; their replay over the
// snapshot is idempotent) — through journal.Log.Rewrite, crash-safe at
// any point: the snapshot covers everything dropped. A failure is
// propagated and leaves the old journal in place.
func (w *WAL) TruncateThrough(lastSeq int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.Barrier()
	if err := w.log.Err(); err != nil {
		return err
	}
	data, err := w.fsys.ReadFile(w.log.Path())
	if err != nil {
		return fmt.Errorf("enact: wal truncate: %w", err)
	}
	var keep []byte
	journal.Check(data, func(_ int64, payload []byte) error {
		if seq, ok := walRecordSeq(payload); ok && seq > lastSeq {
			keep = journal.AppendRecord(keep, payload)
		}
		return nil
	})
	if err := w.log.Rewrite(keep); err != nil {
		return fmt.Errorf("enact: wal truncate: %w", err)
	}
	w.sinceSnap.Store(0)
	return nil
}

// Close waits for in-flight commits and closes the journal. Further
// staging fails; Close is idempotent.
func (w *WAL) Close() error { return w.log.Close() }

// ---------------------------------------------------------------------
// Schema serialization. Dynamic AddActivity records (and snapshot
// extraActs) may reference schemas that are not in the schema registry;
// those are serialized inline into a walSchemaTable. Schemas that ARE
// registered are referenced by name and resolved against the registry
// at decode time — the registry itself is recovered first from the
// persisted ADL specs.

type walSchemaTable struct {
	Basics map[string]*walBasicSchema `json:"basics,omitempty"`
	Procs  map[string]*walProcSchema  `json:"procs,omitempty"`
}

func (t *walSchemaTable) empty() bool {
	return t == nil || (len(t.Basics) == 0 && len(t.Procs) == 0)
}

type walBasicSchema struct {
	States       *walStateSchema  `json:"states,omitempty"`
	ResourceVars []walResourceVar `json:"resourceVars,omitempty"`
	Performer    string           `json:"performer,omitempty"`
}

type walProcSchema struct {
	States       *walStateSchema  `json:"states,omitempty"`
	ResourceVars []walResourceVar `json:"resourceVars,omitempty"`
	Activities   []walActivityVar `json:"activities,omitempty"`
	Dependencies []walDependency  `json:"dependencies,omitempty"`
	Entry        []string         `json:"entry,omitempty"`
}

type walResourceVar struct {
	Name   string               `json:"name"`
	Schema *core.ResourceSchema `json:"schema"`
	Usage  int                  `json:"usage"`
	Role   string               `json:"role,omitempty"`
}

type walActivityVar struct {
	Name       string            `json:"name"`
	Schema     string            `json:"schema"`
	Optional   bool              `json:"optional,omitempty"`
	Repeatable bool              `json:"repeatable,omitempty"`
	Bind       map[string]string `json:"bind,omitempty"`
}

type walDependency struct {
	Name    string    `json:"name,omitempty"`
	Type    int       `json:"type"`
	Sources []string  `json:"sources"`
	Target  string    `json:"target"`
	Guard   *walGuard `json:"guard,omitempty"`
}

type walGuard struct {
	ContextVar string         `json:"contextVar"`
	Field      string         `json:"field"`
	Op         string         `json:"op"`
	Value      core.WireValue `json:"value"`
}

// walStateSchema serializes a custom activity state schema using the
// exported build API: states parents-first, then transitions, then the
// initial state. A nil walStateSchema means the generic schema.
type walStateSchema struct {
	Name    string      `json:"name"`
	States  [][2]string `json:"states"` // (state, parent), parents first
	Trans   [][2]string `json:"trans,omitempty"`
	Initial string      `json:"initial"`
}

func encodeStateSchema(s *core.StateSchema) *walStateSchema {
	if s == nil {
		return nil
	}
	out := &walStateSchema{Name: s.Name(), Initial: string(s.Initial())}
	states := s.States()
	depth := func(st core.State) int {
		d := 0
		for cur := s.Parent(st); cur != ""; cur = s.Parent(cur) {
			d++
		}
		return d
	}
	sort.SliceStable(states, func(i, j int) bool { return depth(states[i]) < depth(states[j]) })
	for _, st := range states {
		out.States = append(out.States, [2]string{string(st), string(s.Parent(st))})
	}
	for _, tr := range s.Transitions() {
		out.Trans = append(out.Trans, [2]string{string(tr[0]), string(tr[1])})
	}
	return out
}

func decodeStateSchema(w *walStateSchema) (*core.StateSchema, error) {
	if w == nil {
		return nil, nil
	}
	s := core.NewStateSchema(w.Name)
	for _, st := range w.States {
		if err := s.AddState(core.State(st[0]), core.State(st[1])); err != nil {
			return nil, err
		}
	}
	for _, tr := range w.Trans {
		if err := s.AddTransition(core.State(tr[0]), core.State(tr[1])); err != nil {
			return nil, err
		}
	}
	if w.Initial != "" {
		if err := s.SetInitial(core.State(w.Initial)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func encodeResourceVars(rvs []core.ResourceVariable) []walResourceVar {
	var out []walResourceVar
	for _, rv := range rvs {
		out = append(out, walResourceVar{
			Name:   rv.Name,
			Schema: rv.Schema,
			Usage:  int(rv.Usage),
			Role:   string(rv.Role),
		})
	}
	return out
}

func decodeResourceVars(ws []walResourceVar) []core.ResourceVariable {
	var out []core.ResourceVariable
	for _, w := range ws {
		out = append(out, core.ResourceVariable{
			Name:   w.Name,
			Schema: w.Schema,
			Usage:  core.Usage(w.Usage),
			Role:   core.RoleRef(w.Role),
		})
	}
	return out
}

func encodeDependency(d core.Dependency) (walDependency, error) {
	w := walDependency{
		Name:    d.Name,
		Type:    int(d.Type),
		Sources: append([]string(nil), d.Sources...),
		Target:  d.Target,
	}
	if d.Guard != nil {
		v, err := core.EncodeValue(d.Guard.Value)
		if err != nil {
			return walDependency{}, err
		}
		w.Guard = &walGuard{
			ContextVar: d.Guard.ContextVar,
			Field:      d.Guard.Field,
			Op:         d.Guard.Op,
			Value:      v,
		}
	}
	return w, nil
}

func decodeDependency(w walDependency) (core.Dependency, error) {
	d := core.Dependency{
		Name:    w.Name,
		Type:    core.DependencyType(w.Type),
		Sources: append([]string(nil), w.Sources...),
		Target:  w.Target,
	}
	if w.Guard != nil {
		v, err := w.Guard.Value.Decode()
		if err != nil {
			return core.Dependency{}, err
		}
		d.Guard = &core.Guard{
			ContextVar: w.Guard.ContextVar,
			Field:      w.Guard.Field,
			Op:         w.Guard.Op,
			Value:      v,
		}
	}
	return d, nil
}

// encodeActivityVar serializes an activity variable, adding inline
// definitions to tbl for every reachable schema that is not registered
// (as the same object) in reg.
func encodeActivityVar(av core.ActivityVariable, tbl *walSchemaTable, reg *core.SchemaRegistry) (walActivityVar, error) {
	w := walActivityVar{
		Name:       av.Name,
		Optional:   av.Optional,
		Repeatable: av.Repeatable,
	}
	if len(av.Bind) > 0 {
		w.Bind = make(map[string]string, len(av.Bind))
		for k, v := range av.Bind {
			w.Bind[k] = v
		}
	}
	if av.Schema == nil {
		return walActivityVar{}, fmt.Errorf("enact: activity variable %q has no schema", av.Name)
	}
	w.Schema = av.Schema.SchemaName()
	if err := ensureSchemaDef(av.Schema, tbl, reg); err != nil {
		return walActivityVar{}, err
	}
	return w, nil
}

func ensureSchemaDef(s core.ActivitySchema, tbl *walSchemaTable, reg *core.SchemaRegistry) error {
	name := s.SchemaName()
	if existing, ok := reg.Lookup(name); ok && existing == s {
		return nil // resolvable by name against the recovered registry
	}
	if tbl.Basics[name] != nil || tbl.Procs[name] != nil {
		return nil // already serialized (shared or cyclic reference)
	}
	switch x := s.(type) {
	case *core.BasicActivitySchema:
		if tbl.Basics == nil {
			tbl.Basics = make(map[string]*walBasicSchema)
		}
		tbl.Basics[name] = &walBasicSchema{
			States:       encodeStateSchema(x.StateSchema),
			ResourceVars: encodeResourceVars(x.ResourceVars),
			Performer:    string(x.PerformerRole),
		}
	case *core.ProcessSchema:
		if tbl.Procs == nil {
			tbl.Procs = make(map[string]*walProcSchema)
		}
		wp := &walProcSchema{}
		tbl.Procs[name] = wp // placeholder first: recursion may revisit
		wp.States = encodeStateSchema(x.StateSchema)
		wp.ResourceVars = encodeResourceVars(x.ResourceVars)
		wp.Entry = append([]string(nil), x.Entry...)
		for _, av := range x.Activities {
			wav, err := encodeActivityVar(av, tbl, reg)
			if err != nil {
				return err
			}
			wp.Activities = append(wp.Activities, wav)
		}
		for _, d := range x.Dependencies {
			wd, err := encodeDependency(d)
			if err != nil {
				return err
			}
			wp.Dependencies = append(wp.Dependencies, wd)
		}
	default:
		return fmt.Errorf("enact: cannot serialize activity schema %q (%T)", name, s)
	}
	return nil
}

// A schemaResolver rebuilds activity schemas from a walSchemaTable,
// falling back to the live schema registry for registered names.
type schemaResolver struct {
	tbl   *walSchemaTable
	reg   *core.SchemaRegistry
	cache map[string]core.ActivitySchema
}

func newSchemaResolver(tbl *walSchemaTable, reg *core.SchemaRegistry) *schemaResolver {
	if tbl == nil {
		tbl = &walSchemaTable{}
	}
	return &schemaResolver{tbl: tbl, reg: reg, cache: make(map[string]core.ActivitySchema)}
}

func (r *schemaResolver) resolve(name string) (core.ActivitySchema, error) {
	if s, ok := r.cache[name]; ok {
		return s, nil
	}
	if wb := r.tbl.Basics[name]; wb != nil {
		states, err := decodeStateSchema(wb.States)
		if err != nil {
			return nil, err
		}
		b := &core.BasicActivitySchema{
			Name:          name,
			StateSchema:   states,
			ResourceVars:  decodeResourceVars(wb.ResourceVars),
			PerformerRole: core.RoleRef(wb.Performer),
		}
		r.cache[name] = b
		return b, nil
	}
	if wp := r.tbl.Procs[name]; wp != nil {
		ps := &core.ProcessSchema{Name: name}
		r.cache[name] = ps // before recursing: schemas may be cyclic
		states, err := decodeStateSchema(wp.States)
		if err != nil {
			return nil, err
		}
		ps.StateSchema = states
		ps.ResourceVars = decodeResourceVars(wp.ResourceVars)
		ps.Entry = append([]string(nil), wp.Entry...)
		for _, wav := range wp.Activities {
			av, err := r.activityVar(wav)
			if err != nil {
				return nil, err
			}
			ps.Activities = append(ps.Activities, av)
		}
		for _, wd := range wp.Dependencies {
			d, err := decodeDependency(wd)
			if err != nil {
				return nil, err
			}
			ps.Dependencies = append(ps.Dependencies, d)
		}
		return ps, nil
	}
	if s, ok := r.reg.Lookup(name); ok {
		return s, nil
	}
	return nil, fmt.Errorf("enact: recovery references schema %q, which is neither journaled inline nor registered — register programmatic schemas before reopening the state directory", name)
}

func (r *schemaResolver) activityVar(w walActivityVar) (core.ActivityVariable, error) {
	s, err := r.resolve(w.Schema)
	if err != nil {
		return core.ActivityVariable{}, err
	}
	av := core.ActivityVariable{
		Name:       w.Name,
		Schema:     s,
		Optional:   w.Optional,
		Repeatable: w.Repeatable,
	}
	if len(w.Bind) > 0 {
		av.Bind = make(map[string]string, len(w.Bind))
		for k, v := range w.Bind {
			av.Bind[k] = v
		}
	}
	return av, nil
}

// observeSnapshot records one compaction in the WAL's instruments.
func (w *WAL) observeSnapshot(d time.Duration) {
	if w.m != nil {
		w.m.snapshots.Inc()
		w.m.snapshotTime.Observe(d)
	}
}
