package crisis

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// This file holds the many-instance ingest workload behind the sharded
// awareness benchmarks: a large population of independent process
// instances, each emitting a stream of activity state changes, watched
// by one awareness schema that detects on every event. Per-instance
// operator state (Section 5.1.2) makes the instances independent, so the
// workload exposes exactly the parallelism the sharded detection pool
// exploits; each detection is journaled durably per shard, mirroring the
// persistent delivery queues of Section 6.5.

// IngestProcessSchema returns the minimal process schema of the ingest
// workload: one repeatable work activity.
func IngestProcessSchema() *core.ProcessSchema {
	return &core.ProcessSchema{
		Name: "Ingest",
		Activities: []core.ActivityVariable{
			{Name: "Work", Repeatable: true,
				Schema: &core.BasicActivitySchema{Name: "IngestWork", PerformerRole: core.OrgRole("Epidemiologist")}},
		},
	}
}

// IngestSchemas returns the awareness schemas of the ingest workload
// over the given process schema: every start of the work activity is
// counted and detected.
func IngestSchemas(p *core.ProcessSchema) []*awareness.Schema {
	return []*awareness.Schema{{
		Name:         "WorkStarted",
		Process:      p,
		Description:  &awareness.CountNode{Input: &awareness.ActivitySource{Av: "Work", New: []core.State{core.Running}}},
		DeliveryRole: core.OrgRole("CrisisLeader"),
		Text:         "work activity started",
	}}
}

// IngestEvents generates the workload's primitive activity events:
// eventsPerInstance work-activity starts for each of instances distinct
// process instances, round-robin across instances (the adversarial
// interleaving for per-instance state).
func IngestEvents(clock vclock.Clock, instances, eventsPerInstance int) []event.Event {
	out := make([]event.Event, 0, instances*eventsPerInstance)
	for round := 0; round < eventsPerInstance; round++ {
		for i := 0; i < instances; i++ {
			inst := fmt.Sprintf("ing-%d", i)
			out = append(out, event.NewActivity(clock.Next(), "coordination-engine", event.ActivityChange{
				ActivityInstanceID:      fmt.Sprintf("%s/Work-%d", inst, round),
				ParentProcessSchemaID:   "Ingest",
				ParentProcessInstanceID: inst,
				ActivityVariableID:      "Work",
				OldState:                string(core.Ready),
				NewState:                string(core.Running),
			}))
		}
	}
	return out
}

// A JournalSink durably journals every detection it consumes: one
// record committed and fsynced per event through a journal.Log, the way
// the delivery agent's persistent queues journal notifications. It is
// safe for concurrent use only in the sense the benchmark needs — one
// sink per shard, each driven by a single detector agent.
//
// A failed write or fsync permanently poisons the sink (the journal's
// fsyncgate policy). Poisoned sinks drop further events without
// counting them; Err surfaces the failure so the run fails loudly
// instead of under-reporting.
type JournalSink struct {
	log *journal.Log[struct{}]
	mu  sync.Mutex // orders staging; guards rec
	rec []byte
	n   atomic.Uint64
}

// NewJournalSink opens a fresh journal file, replacing any earlier one.
func NewJournalSink(path string) (*JournalSink, error) {
	return NewJournalSinkFS(path, nil)
}

// NewJournalSinkFS is NewJournalSink on an explicit filesystem (nil
// means the real one) — the seam tests inject storage faults through.
func NewJournalSinkFS(path string, fsys fs.FS) (*JournalSink, error) {
	fsys = fs.Or(fsys)
	fsys.Remove(path) // one journal per run
	log, _, err := journal.Open(path, journal.Options[struct{}]{FS: fsys, Sync: true}, nil)
	if err != nil {
		return nil, err
	}
	return &JournalSink{log: log}, nil
}

// Consume implements event.Consumer: commit one record, fsynced. The
// detection counts as journaled only when its commit succeeds.
func (j *JournalSink) Consume(ev event.Event) {
	j.mu.Lock()
	j.rec = fmt.Appendf(j.rec[:0], "%s %s", ev.InstanceID(), ev.String(event.PSchemaName))
	t, err := j.log.StageRecord(j.rec)
	j.mu.Unlock()
	if err == nil && t.Wait() == nil {
		j.n.Add(1)
	}
}

// Count returns how many detections were journaled.
func (j *JournalSink) Count() uint64 { return j.n.Load() }

// Err returns the sticky append/fsync failure that poisoned the sink,
// if any.
func (j *JournalSink) Err() error {
	if j.log.Poisoned() {
		return j.log.Err()
	}
	return nil
}

// Close closes the journal file.
func (j *JournalSink) Close() error { return j.log.Close() }

// A StoreSink fans every detection it consumes out to a fixed
// participant set through a shared delivery.Store — the real persistent
// notification queues of Section 6.5 rather than JournalSink's ad-hoc
// files. One StoreSink is shared by every shard, so concurrent shards
// hit the same participant queues and exercise the store's per-queue
// group-commit journal: the benchmark's localJournal curve only scales
// with shards if concurrent appends coalesce their flushes.
type StoreSink struct {
	Store *delivery.Store
	Users []string
	n     atomic.Uint64
}

// Consume implements event.Consumer: build the notification once and
// enqueue it durably for every user via the batch fan-out path.
func (s *StoreSink) Consume(ev event.Event) {
	n := delivery.NotificationFromEvent(ev)
	if _, _, err := s.Store.EnqueueFanout(s.Users, "", n); err != nil {
		return
	}
	s.n.Add(1)
}

// ConsumeBatch implements event.BatchConsumer: a detection shard's
// drained batch fans out in one EnqueueFanoutBatch call, so all its
// records for one participant queue share a single lock acquisition and
// commit-group join.
func (s *StoreSink) ConsumeBatch(evs []event.Event) {
	items := make([]delivery.FanoutItem, len(evs))
	for i, ev := range evs {
		items[i] = delivery.FanoutItem{Users: s.Users, N: delivery.NotificationFromEvent(ev)}
	}
	queued, _, err := s.Store.EnqueueFanoutBatch(items)
	if err != nil {
		return
	}
	for i := range queued {
		if queued[i] > 0 {
			s.n.Add(1)
		}
	}
}

// Count returns how many detections were enqueued.
func (s *StoreSink) Count() uint64 { return s.n.Load() }

// A RemoteSink models the delivery agent's synchronous notification push
// to a remote client tool — a CORBA call in the paper's implementation
// (Section 6.5) — as a fixed per-detection service latency, then forwards
// to the inner consumer. Sharded detection overlaps these waits: while
// one shard's push is in flight, the other shards keep detecting and
// pushing, which is the pipeline property the benchmark measures.
type RemoteSink struct {
	Latency time.Duration
	Inner   event.Consumer
}

// Consume implements event.Consumer.
func (r *RemoteSink) Consume(ev event.Event) {
	if r.Latency > 0 {
		time.Sleep(r.Latency)
	}
	if r.Inner != nil {
		r.Inner.Consume(ev)
	}
}

// IngestConfig sizes one ingest run.
type IngestConfig struct {
	// Shards is the awareness engine's shard count (1 = one worker).
	Shards int
	// Instances is how many independent process instances emit events.
	Instances int
	// EventsPerInstance is how many work starts each instance emits.
	EventsPerInstance int
	// Dir is where the per-shard detection journals are written.
	Dir string
	// Store, if non-nil, selects the store-backed journal path: every
	// detection is enqueued durably into this delivery store (fanned out
	// to FanoutUsers) instead of the per-shard JournalSink files. The
	// store is shared by all shards, so the run measures the store's
	// group-commit journal under shard concurrency.
	Store *delivery.Store
	// FanoutUsers are the participants each detection fans out to on the
	// Store path. Default: the single queue "crisis-leader".
	FanoutUsers []string
	// DeliveryLatency, if positive, models the synchronous push of each
	// detection to a remote client tool (Section 6.5) as a fixed wait in
	// front of the journal. Zero measures the local path only.
	DeliveryLatency time.Duration
	// Metrics, if non-nil, instruments the run's awareness engine and
	// detector pool (per-shard injected/detected/latency series), so a
	// benchmark can both measure throughput with instrumentation enabled
	// and print a metrics snapshot afterwards.
	Metrics *obs.Registry
}

// IngestResult reports one ingest run.
type IngestResult struct {
	Shards       int
	Events       int
	Detections   uint64
	Elapsed      time.Duration
	EventsPerSec float64 // events per second
}

// RunIngest pushes the workload through a sharded awareness engine with
// per-shard durable detection journals and reports throughput. Every
// detection is journaled before Stop returns (drain-on-Stop), so the
// measured interval covers full, durable processing of every event.
func RunIngest(cfg IngestConfig) (IngestResult, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	if cfg.EventsPerInstance < 1 {
		cfg.EventsPerInstance = 1
	}
	proc := IngestProcessSchema()
	if err := proc.Validate(); err != nil {
		return IngestResult{}, err
	}
	var (
		count   func() uint64
		sink    func(shard int) event.Consumer
		sinkErr func() error
	)
	if cfg.Store != nil {
		users := cfg.FanoutUsers
		if len(users) == 0 {
			users = []string{"crisis-leader"}
		}
		shared := &StoreSink{Store: cfg.Store, Users: users}
		cfg.Store.Instrument(cfg.Metrics)
		count = shared.Count
		sink = func(int) event.Consumer { return shared }
	} else {
		sinks := make([]*JournalSink, cfg.Shards)
		for i := range sinks {
			s, err := NewJournalSink(filepath.Join(cfg.Dir, fmt.Sprintf("detections-%d.log", i)))
			if err != nil {
				return IngestResult{}, err
			}
			sinks[i] = s
		}
		defer func() {
			for _, s := range sinks {
				s.Close()
			}
		}()
		count = func() uint64 {
			var n uint64
			for _, s := range sinks {
				n += s.Count()
			}
			return n
		}
		sink = func(shard int) event.Consumer { return sinks[shard] }
		sinkErr = func() error {
			for _, s := range sinks {
				if err := s.Err(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	eng := awareness.NewEngine(nil, awareness.Options{
		Shards:  cfg.Shards,
		Metrics: cfg.Metrics,
		ShardSink: func(shard int) event.Consumer {
			if cfg.DeliveryLatency > 0 {
				return &RemoteSink{Latency: cfg.DeliveryLatency, Inner: sink(shard)}
			}
			return sink(shard)
		},
	})
	if err := eng.Define(IngestSchemas(proc)...); err != nil {
		return IngestResult{}, err
	}
	events := IngestEvents(vclock.NewVirtual(), cfg.Instances, cfg.EventsPerInstance)
	if err := eng.Start(); err != nil {
		return IngestResult{}, err
	}
	start := time.Now()
	for _, ev := range events {
		eng.Consume(ev)
	}
	eng.Stop() // drains every shard: all detections journaled
	elapsed := time.Since(start)

	if sinkErr != nil {
		if err := sinkErr(); err != nil {
			return IngestResult{}, fmt.Errorf("crisis: ingest journal poisoned: %w", err)
		}
	}
	detections := count()
	want := uint64(len(events))
	if detections != want {
		return IngestResult{}, fmt.Errorf("crisis: ingest at %d shards journaled %d detections, want %d",
			cfg.Shards, detections, want)
	}
	return IngestResult{
		Shards:       cfg.Shards,
		Events:       len(events),
		Detections:   detections,
		Elapsed:      elapsed,
		EventsPerSec: float64(len(events)) / elapsed.Seconds(),
	}, nil
}
