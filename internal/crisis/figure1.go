package crisis

import (
	"fmt"
	"sort"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// A TimelineRow is one bar of the Figure 1 Gantt chart: one activity
// instance of the crisis information gathering scenario.
type TimelineRow struct {
	Label    string
	Start    time.Time
	End      time.Time
	Optional bool
}

// Figure1Result is the regenerated Figure 1.
type Figure1Result struct {
	ProcessStart time.Time
	ProcessEnd   time.Time
	Rows         []TimelineRow
	// Notifications delivered during the scenario, per participant.
	Notifications map[string]int
	// Events is the number of primitive activity events emitted.
	Events int
}

// driver wraps a system with scenario helpers.
type driver struct {
	sys   *cmi.System
	clk   *vclock.Virtual
	staff Staff
}

func (d *driver) step(dur time.Duration) { d.clk.Advance(dur) }

func (d *driver) find(processID, varName string, state cmi.State) (enact.ActivityInfo, error) {
	for _, ai := range d.sys.Coordination().ActivitiesOf(processID) {
		if ai.Var == varName && ai.State == state {
			return ai, nil
		}
	}
	return enact.ActivityInfo{}, fmt.Errorf("crisis: no %s instance of %q in %s", state, varName, processID)
}

// run starts and, dur later, completes one activity instance.
func (d *driver) run(processID, varName, user string, dur time.Duration) error {
	ai, err := d.find(processID, varName, cmi.Ready)
	if err != nil {
		return err
	}
	if err := d.sys.Coordination().Start(ai.ID, user); err != nil {
		return err
	}
	d.step(dur)
	return d.sys.Coordination().Complete(ai.ID, user)
}

// spawnTaskForce starts one task-force subprocess, staffs it, runs its
// investigation and optionally an information request, and reports.
func (d *driver) spawnTaskForce(processID, varName, leader string, members []string, dur time.Duration, withRequest bool) error {
	ai, err := d.find(processID, varName, cmi.Ready)
	if err != nil {
		return err
	}
	co := d.sys.Coordination()
	if err := co.Start(ai.ID, d.staff.Leader); err != nil {
		return err
	}
	tfID := ai.ID // the subprocess shares the activity instance id
	if err := d.sys.SetScopedRole(tfID, "tfc", "TaskForceLeader", leader); err != nil {
		return err
	}
	if err := d.sys.SetScopedRole(tfID, "tfc", "TaskForceMembers", append([]string{leader}, members...)...); err != nil {
		return err
	}
	if err := d.sys.SetContextField(tfID, "tfc", "TaskForceDeadline", d.clk.Now().Add(10*dur)); err != nil {
		return err
	}
	if err := d.run(tfID, "Organize", d.staff.Leader, dur/4); err != nil {
		return err
	}
	if withRequest {
		req, err := d.find(tfID, "RequestInfo", cmi.Ready)
		if err != nil {
			return err
		}
		if err := co.Start(req.ID, leader); err != nil {
			return err
		}
		if err := d.sys.SetScopedRole(req.ID, "irc", "Requestor", leader); err != nil {
			return err
		}
		if err := d.sys.SetContextField(req.ID, "irc", "RequestDeadline", d.clk.Now().Add(5*dur)); err != nil {
			return err
		}
		if err := d.run(req.ID, "Gather", members[0], dur/2); err != nil {
			return err
		}
		if err := d.run(req.ID, "Integrate", members[0], dur/4); err != nil {
			return err
		}
	}
	if err := d.run(tfID, "Investigate", members[0], dur); err != nil {
		return err
	}
	return d.run(tfID, "ReportFindings", leader, dur/4)
}

// RunFigure1 drives the Figure 1 scenario on a fresh system and returns
// the regenerated timeline. The scenario is deterministic.
func RunFigure1() (*Figure1Result, error) {
	clk := vclock.NewVirtual()
	sys, err := cmi.New(cmi.Config{Clock: clk})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	model, err := NewModel()
	if err != nil {
		return nil, err
	}
	if err := model.Install(sys); err != nil {
		return nil, err
	}
	staff, err := SeedStaff(sys, 6)
	if err != nil {
		return nil, err
	}

	// Record activity spans from the primitive event stream.
	type span struct {
		label    string
		start    time.Time
		end      time.Time
		optional bool
	}
	spans := map[string]*span{}
	optionalVars := map[string]bool{
		"MediaTaskForce": true, "LabTest": true, "LocalExpertise": true, "RequestInfo": true,
	}
	sys.Coordination().Observe(eventRecorder(func(instID, varName, newState string, ts time.Time) {
		if varName == "" {
			return // top-level process transitions
		}
		sp, ok := spans[instID]
		if !ok {
			sp = &span{label: varName, optional: optionalVars[varName]}
			spans[instID] = sp
		}
		st := core.State(newState)
		if core.GenericStateSchema().IsSubstateOf(st, core.Running) && sp.start.IsZero() {
			sp.start = ts
		}
		if core.GenericStateSchema().IsSubstateOf(st, core.Closed) {
			sp.end = ts
		}
	}))
	var eventCount int
	sys.Coordination().Observe(eventRecorder(func(string, string, string, time.Time) { eventCount++ }))

	if err := sys.Start(); err != nil {
		return nil, err
	}

	d := &driver{sys: sys, clk: clk, staff: staff}
	const h = time.Hour

	pi, err := sys.StartProcess("InformationGathering", staff.Leader)
	if err != nil {
		return nil, err
	}
	t0 := clk.Now()
	co := sys.Coordination()

	// The agency becomes aware of the outbreak.
	if err := d.run(pi.ID(), "ReceiveReports", staff.Leader, 2*h); err != nil {
		return nil, err
	}
	if err := d.run(pi.ID(), "AssessSituation", staff.Leader, 3*h); err != nil {
		return nil, err
	}

	// Three task forces, staggered, as in Figure 1.
	if err := d.spawnTaskForce(pi.ID(), "PatientInterviews", staff.Epidemiologists[0],
		staff.Epidemiologists[1:3], 8*h, true); err != nil {
		return nil, err
	}
	d.step(2 * h)
	// First lab test issued while the next force forms.
	lab1, err := co.Instantiate(pi.ID(), "LabTest", staff.Leader)
	if err != nil {
		return nil, err
	}
	if err := co.Start(lab1.ID, staff.LabTechs[0]); err != nil {
		return nil, err
	}

	if err := d.spawnTaskForce(pi.ID(), "HospitalRelations", staff.Epidemiologists[3],
		staff.Epidemiologists[4:5], 6*h, false); err != nil {
		return nil, err
	}
	if err := co.Complete(lab1.ID, staff.LabTechs[0]); err != nil {
		return nil, err
	}

	// Local expertise consulted.
	exp1, err := co.Instantiate(pi.ID(), "LocalExpertise", staff.Leader)
	if err != nil {
		return nil, err
	}
	if err := co.Start(exp1.ID, staff.Epidemiologists[5]); err != nil {
		return nil, err
	}
	d.step(4 * h)
	if err := co.Complete(exp1.ID, staff.Epidemiologists[5]); err != nil {
		return nil, err
	}

	// Second and third lab tests.
	for i, tech := range []string{staff.LabTechs[1], staff.LabTechs[0]} {
		lab, err := co.Instantiate(pi.ID(), "LabTest", staff.Leader)
		if err != nil {
			return nil, err
		}
		if err := co.Start(lab.ID, tech); err != nil {
			return nil, err
		}
		d.step(time.Duration(3+i) * h)
		if err := co.Complete(lab.ID, tech); err != nil {
			return nil, err
		}
	}

	if err := d.spawnTaskForce(pi.ID(), "VectorOfTransmission", staff.Epidemiologists[1],
		staff.Epidemiologists[2:4], 7*h, false); err != nil {
		return nil, err
	}

	// Media task force and a second expertise consult, optional.
	if err := d.spawnMediaForce(pi.ID()); err != nil {
		return nil, err
	}
	exp2, err := co.Instantiate(pi.ID(), "LocalExpertise", staff.Leader)
	if err != nil {
		return nil, err
	}
	if err := co.Start(exp2.ID, staff.Epidemiologists[0]); err != nil {
		return nil, err
	}
	d.step(2 * h)
	if err := co.Complete(exp2.ID, staff.Epidemiologists[0]); err != nil {
		return nil, err
	}

	// The strategy activity became ready when the three mandatory task
	// forces reported (and-join); finish the process.
	if err := d.run(pi.ID(), "DevelopStrategy", staff.Leader, 5*h); err != nil {
		return nil, err
	}
	if st, _ := co.ProcessState(pi.ID()); st != cmi.Completed {
		return nil, fmt.Errorf("crisis: information gathering ended %s, want Completed", st)
	}
	end := clk.Now()
	sys.Drain()

	res := &Figure1Result{
		ProcessStart:  t0,
		ProcessEnd:    end,
		Notifications: map[string]int{},
		Events:        eventCount,
	}
	for _, sp := range spans {
		if sp.start.IsZero() {
			continue // never started (e.g. terminated leftovers)
		}
		res.Rows = append(res.Rows, TimelineRow{
			Label: sp.label, Start: sp.start, End: sp.end, Optional: sp.optional,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if !res.Rows[i].Start.Equal(res.Rows[j].Start) {
			return res.Rows[i].Start.Before(res.Rows[j].Start)
		}
		return res.Rows[i].Label < res.Rows[j].Label
	})
	for _, p := range sys.Store().Participants() {
		hist, err := sys.Store().History(p)
		if err != nil {
			return nil, err
		}
		res.Notifications[p] = len(hist)
	}
	return res, nil
}

func (d *driver) spawnMediaForce(processID string) error {
	co := d.sys.Coordination()
	media, err := co.Instantiate(processID, "MediaTaskForce", d.staff.Leader)
	if err != nil {
		return err
	}
	if err := co.Start(media.ID, d.staff.Leader); err != nil {
		return err
	}
	tfID := media.ID
	if err := d.sys.SetScopedRole(tfID, "tfc", "TaskForceLeader", d.staff.Epidemiologists[4]); err != nil {
		return err
	}
	if err := d.sys.SetScopedRole(tfID, "tfc", "TaskForceMembers", d.staff.Epidemiologists[4], d.staff.Epidemiologists[5]); err != nil {
		return err
	}
	if err := d.run(tfID, "Organize", d.staff.Leader, time.Hour); err != nil {
		return err
	}
	if err := d.run(tfID, "Investigate", d.staff.Epidemiologists[5], 3*time.Hour); err != nil {
		return err
	}
	return d.run(tfID, "ReportFindings", d.staff.Epidemiologists[4], time.Hour)
}

// eventRecorder adapts a callback to event.Consumer for activity events.
type eventRecorder func(instanceID, varName, newState string, ts time.Time)

// Consume implements event.Consumer.
func (f eventRecorder) Consume(ev cmi.Event) {
	f(ev.String("activityInstanceId"), ev.String("activityVariableId"), ev.String("newState"), ev.Time())
}
