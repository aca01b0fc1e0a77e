package main

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/federation"
)

// A workload is one traffic mix: the stack it builds, one iteration of
// an action client's loop, and the durable-queue checks of its oracle.
type workload struct {
	name, why string
	// remote marks a workload whose notifications cross to a second
	// domain before reaching the subscriber.
	remote bool
	// cycles is how many times step runs in a round's measured part,
	// shared by the action clients. A round's state grows only with
	// it, so the state the requests see does not depend on the
	// program's speed.
	cycles int
	build  func(st *stack, root string, tr *tracer, nclients int) error
	step   func(r *run, c *client)
	check  func(r *run)
	// observeGroup names the notification a primitive event will cause,
	// if it is a triggering one.
	observeGroup func(ev event.Event) (string, bool)
	// noteGroup extracts a notification's correlation group and the
	// detail it must carry from its params.
	noteGroup func(params map[string]any) (group, detail string, ok bool)
}

var workloads = []*workload{
	{
		name:         "handoff",
		why:          "one completed step crosses every layer and the federation spool->push->remote journal hop to a second domain, with fan-out 1 and one filter operator",
		remote:       true,
		cycles:       3000,
		build:        buildHandoff,
		step:         stepCase,
		check:        checkHandoff,
		observeGroup: stepObserved,
		noteGroup:    stepNote,
	},
	{
		name:         "watch",
		why:          "context writes and reads run through 64 awareness schemas over 256 instances, so detection does the work and delivery almost none",
		cycles:       5000,
		build:        buildWatch,
		step:         stepWatch,
		check:        checkWatch,
		observeGroup: levelObserved,
		noteGroup:    levelNote,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	// caseFamilies and watchFamilies are the process instances the
	// clients act on.
	caseFamilies  = 64
	watchFamilies = 256
	// levelThreshold is LevelHigh's compare1 bound; Level values are
	// drawn from [0,100), so about one Level write in ten fires.
	levelThreshold = 90
)

// caseProcess keeps every instance alive: Hold is never worked, so the
// instance (and its scoped roles) outlives the run while Step is
// instantiated, started and completed over and over.
const caseProcess = `
process Case {
    context cc CaseCtx
    activity Hold role org Supervisors
    activity Step role org Workers repeatable
    entry Hold
}
`

// stepSpec is the handoff workload's spec: StepDone tells each case's
// scoped lead that a step completed.
const stepSpec = "contextschema CaseCtx {\n    role Lead\n}\n" + caseProcess + `
awareness StepDone on Case {
    root = activity Step to (Completed)
    deliver scoped CaseCtx.Lead
    describe "A step of the case completed"
}
`

// watchFields are the watch workload's int context fields in order of
// their disjoint value ranges: Level in [0,100), F_k in
// [1000k, 1000k+100).
var watchFields = []string{"Level", "F1", "F2", "F3", "F4", "F5", "F6", "F7"}

// watchSpec declares LevelHigh plus 63 schemas over count, compare1,
// compare2 and and that no generated input satisfies: their compare1
// bounds lie above every value and count the run can reach, and each
// compare2 asks a lower value range to exceed a higher one.
func watchSpec() string {
	var b strings.Builder
	b.WriteString("contextschema CaseCtx {\n    role Lead\n")
	for _, f := range watchFields {
		fmt.Fprintf(&b, "    int %s\n", f)
	}
	b.WriteString("}\n" + caseProcess)
	fmt.Fprintf(&b, `
awareness LevelHigh on Case {
    root = compare1 ">=" %d (context CaseCtx.Level)
    deliver scoped CaseCtx.Lead
    describe "Case level is high"
}
`, levelThreshold)
	for i := 0; i < 63; i++ {
		lo, hi := watchFields[i%7], watchFields[i%7+1]
		var root string
		switch i % 4 {
		case 0:
			root = fmt.Sprintf(`compare1 ">=" 1000000 (context CaseCtx.%s)`, hi)
		case 1:
			root = fmt.Sprintf(`compare1 ">=" 1000000000 (count (context CaseCtx.%s))`, lo)
		case 2:
			root = fmt.Sprintf(`compare2 ">" (context CaseCtx.%s, context CaseCtx.%s)`, lo, hi)
		case 3:
			root = fmt.Sprintf(`and (compare1 ">=" 1000000 (context CaseCtx.%s), compare1 ">=" 1000000000 (count (context CaseCtx.%s)))`, hi, lo)
		}
		fmt.Fprintf(&b, "\nawareness Quiet%02d on Case {\n    root = %s\n    deliver scoped CaseCtx.Lead\n    describe \"never fires\"\n}\n", i, root)
	}
	return b.String()
}

// buildCaseDomain opens a domain, loads spec, staffs the action clients
// (w1..wN, role Workers) and the supervisor, starts it and creates the
// families; lead, when set, plays each family's scoped Lead role.
func buildCaseDomain(st *stack, dir, spec string, nclients, families int, lead string) (*domain, error) {
	d, err := openDomain(dir)
	if err != nil {
		return nil, err
	}
	st.domains = append(st.domains, d)
	sys := d.sys
	if _, err := sys.LoadSpec(spec); err != nil {
		return nil, err
	}
	people := [][2]string{{"sup", "Supervisors"}}
	for i := 1; i <= nclients; i++ {
		people = append(people, [2]string{fmt.Sprintf("w%d", i), "Workers"})
	}
	for _, p := range people {
		if err := sys.AddHuman(p[0], p[0]); err != nil {
			return nil, err
		}
		if err := sys.AssignRole(p[1], p[0]); err != nil {
			return nil, err
		}
	}
	if lead != "" {
		if err := sys.AddHuman(lead, lead); err != nil {
			return nil, err
		}
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < families; i++ {
		pi, err := sys.StartProcess("Case", "sup")
		if err != nil {
			return nil, err
		}
		st.families = append(st.families, pi.ID())
		if lead != "" {
			if err := sys.SetScopedRole(pi.ID(), "cc", "Lead", lead); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// buildHandoff builds domain B (serving rlead, the subscriber) and
// domain A, whose detections go to the scoped lead and are forwarded to
// B the way `cmid -forward` wires it.
func buildHandoff(st *stack, root string, tr *tracer, nclients int) error {
	b, err := openDomain(root + "/b")
	if err != nil {
		return err
	}
	st.domains = append(st.domains, b)
	if err := b.sys.AddHuman("rlead", "rlead"); err != nil {
		return err
	}
	if err := b.sys.Start(); err != nil {
		return err
	}
	if err := b.serve(tr, stepNote); err != nil {
		return err
	}
	a, err := buildCaseDomain(st, root+"/a", stepSpec, nclients, caseFamilies, "lead")
	if err != nil {
		return err
	}
	// A enacts; keep it first so clients and tracer hooks find it there.
	st.domains[0], st.domains[1] = a, b
	st.res = federation.NewResilience(b.url, federation.DefaultPolicy(), nil, a.sys.Metrics())
	st.fwd, err = federation.NewForwarder(federation.ForwarderConfig{
		Client:    federation.NewRemoteClient(b.url, nil).WithResilience(st.res),
		SpoolPath: a.stateDir + "/spool.journal",
		Metrics:   a.sys.Metrics(),
	})
	if err != nil {
		st.res.Close()
		return err
	}
	a.sys.OnDetection(st.fwd.Hook("rlead"))
	st.subDom, st.subWho = b, "rlead"
	return a.serve(tr, stepNote)
}

func buildWatch(st *stack, root string, tr *tracer, nclients int) error {
	d, err := buildCaseDomain(st, root+"/a", watchSpec(), nclients, watchFamilies, "lead")
	if err != nil {
		return err
	}
	st.subDom, st.subWho = d, "lead"
	return d.serve(tr, levelNote)
}

// stepCase is one worklist step: GET the worklist, then instantiate,
// start and complete a Step of a seeded family. The Complete triggers
// StepDone.
func stepCase(r *run, c *client) {
	f := c.fams[c.rng.Intn(len(c.fams))]
	var items []enact.WorkItem
	if c.do(r, false, nil, func() (err error) { items, err = c.pc.Worklist(); return err }) == nil {
		// Only other clients' fresh steps can be open when a client
		// looks: its own previous step is complete.
		if len(items) >= len(r.clients) {
			c.fail("worklist holds %d items with %d clients", len(items), len(r.clients))
		}
		for _, it := range items {
			if it.Var != "Step" {
				c.fail("worklist item %s is %q, not a Step", it.ActivityID, it.Var)
			}
		}
	}
	var info enact.ActivityInfo
	if c.do(r, true, nil, func() (err error) { info, err = c.pc.Instantiate(f, "Step"); return err }) != nil {
		return
	}
	if info.Var != "Step" || info.ProcessID != f {
		c.fail("instantiate returned %+v", info)
		return
	}
	if c.do(r, true, nil, func() error { return c.pc.Start(info.ID) }) != nil {
		return
	}
	if !r.acquire() {
		return
	}
	if c.do(r, true, &trig{group: info.ID}, func() error { return c.pc.Complete(info.ID) }) == nil {
		c.completed = append(c.completed, info.ID)
	}
}

func stepObserved(ev event.Event) (string, bool) {
	if ev.Type != event.TypeActivity || ev.String(event.PNewState) != "Completed" || ev.String(event.PActivityVariableID) != "Step" {
		return "", false
	}
	return ev.String(event.PActivityInstanceID), true
}

func stepNote(p map[string]any) (string, string, bool) {
	if p[event.PSchemaName] != "StepDone" {
		return "", "", false
	}
	id, ok := p[event.PActivityInstanceID].(string)
	return id, "", ok && id != ""
}

// A ctxWrite is one context-field write a watch client made.
type ctxWrite struct {
	field string
	value int64
}

// stepWatch is three context writes and one read. Two reads in three
// GET a context field this client wrote, the third a family's monitor:
// with an even split the median read would sit on the boundary between
// the two kinds' latencies, where it jumps with every small change in
// either.
func stepWatch(r *run, c *client) {
	for i := 0; i < 3; i++ {
		f := c.fams[c.rng.Intn(len(c.fams))]
		// Three writes in four go to Level, so the window's LevelHigh
		// notifications are numerous enough for a steady tail.
		field, v := "Level", int64(c.rng.Intn(100))
		if c.rng.Intn(4) == 0 {
			k := 1 + c.rng.Intn(7)
			field, v = watchFields[k], int64(k*1000+c.rng.Intn(100))
		}
		var tg *trig
		if field == "Level" && v >= levelThreshold {
			if !r.acquire() {
				return
			}
			tg = &trig{group: f, detail: strconv.FormatInt(v, 10)}
		}
		if c.do(r, true, tg, func() error { return c.pc.SetContextField(f, "cc", field, v) }) != nil {
			return
		}
		key := f + "/" + field
		if _, ok := c.last[key]; !ok {
			c.keys = append(c.keys, key)
		}
		c.last[key] = v
		c.ctxWrites = append(c.ctxWrites, ctxWrite{field, v})
	}
	c.nreads++
	if c.nreads%3 != 0 {
		key := c.keys[c.rng.Intn(len(c.keys))]
		f, field, _ := strings.Cut(key, "/")
		var got any
		if c.do(r, false, nil, func() (err error) { got, err = c.pc.ContextField(f, "cc", field); return err }) == nil {
			if fmt.Sprint(got) != strconv.FormatInt(c.last[key], 10) {
				c.fail("context %s reads %v, last write was %d", key, got, c.last[key])
			}
		}
		return
	}
	f := c.fams[c.rng.Intn(len(c.fams))]
	var rows []enact.MonitorRow
	if c.do(r, false, nil, func() (err error) { rows, err = c.pc.Monitor(f); return err }) == nil {
		if len(rows) != 1 || rows[0].Var != "Hold" {
			c.fail("monitor of %s: %d rows, want Hold only", f, len(rows))
		}
	}
}

// levelHighModel is the reference semantics of the watch workload's 64
// schemas: LevelHigh fires once for every Level write of at least
// levelThreshold, and no other schema ever fires.
func levelHighModel(writes []ctxWrite) int {
	n := 0
	for _, w := range writes {
		if w.field == "Level" && w.value >= levelThreshold {
			n++
		}
	}
	return n
}

func levelObserved(ev event.Event) (string, bool) {
	if ev.Type != event.TypeContext || ev.String(event.PFieldName) != "Level" {
		return "", false
	}
	v, ok := ev.Int64(event.PNewFieldValue)
	refs, _ := ev.Params[event.PProcesses].([]event.ProcessRef)
	if !ok || v < levelThreshold || len(refs) == 0 {
		return "", false
	}
	return refs[0].InstanceID, true
}

func levelNote(p map[string]any) (string, string, bool) {
	if p[event.PSchemaName] != "LevelHigh" {
		return "", "", false
	}
	pid, ok := p[event.PProcessInstanceID].(string)
	return pid, fmt.Sprint(p[event.PIntInfo]), ok && pid != ""
}

// completedSet is every activity the clients completed.
func completedSet(r *run) map[string]bool {
	want := make(map[string]bool)
	for _, c := range r.clients {
		for _, id := range c.completed {
			want[id] = true
		}
	}
	return want
}

// queueKeys reads a participant's durable queue and reduces it to
// correlation groups.
func queueKeys(r *run, d *domain, who string) []string {
	ns, err := d.sys.Store().Pending(who)
	if err != nil {
		r.or.fault("read queue %s: %v", who, err)
		return nil
	}
	keys := make([]string, 0, len(ns))
	for _, n := range ns {
		g, _, ok := r.wl.noteGroup(n.Params)
		if !ok {
			r.or.fault("queue %s holds unexpected notification %q", who, n.Schema)
			continue
		}
		keys = append(keys, g)
	}
	return keys
}

func checkHandoff(r *run) {
	want := completedSet(r)
	r.or.checkKeyed("domain B queue rlead", queueKeys(r, r.st.domains[1], "rlead"), want)
	r.or.checkKeyed("domain A queue lead", queueKeys(r, r.st.domains[0], "lead"), want)
}

func checkWatch(r *run) {
	predicted := 0
	for _, c := range r.clients {
		predicted += levelHighModel(c.ctxWrites)
	}
	ns, err := r.st.domains[0].sys.Store().Pending("lead")
	if err != nil {
		r.or.fault("read queue lead: %v", err)
		return
	}
	high := 0
	for _, n := range ns {
		if n.Schema == "LevelHigh" {
			high++
		} else {
			r.or.fault("schema %s fired (notification %d)", n.Schema, n.ID)
		}
	}
	if high != predicted {
		r.or.fault("lead holds %d LevelHigh notifications, reference model predicts %d", high, predicted)
	}
	p, err := scrape(r.st.domains)
	if err != nil {
		r.or.fault("scrape metrics: %v", err)
		return
	}
	if d := int(p.sum("cmi_awareness_detections_total")); d != predicted {
		r.or.fault("%d detections, reference model predicts %d", d, predicted)
	}
}
