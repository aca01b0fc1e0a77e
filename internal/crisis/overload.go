package crisis

import (
	"fmt"
	"sync"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/monitor"
	"github.com/mcc-cmi/cmi/internal/pubsub"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// OverloadConfig sizes the E7 information-overload experiment.
type OverloadConfig struct {
	// TaskForces is how many task-force processes run concurrently.
	TaskForces int
	// MembersPerForce is how many epidemiologists staff each force.
	MembersPerForce int
	// RequestsPerForce is how many information requests each force
	// issues (each by a distinct member, round-robin).
	RequestsPerForce int
	// DeadlineMovesPerForce is how many times each force's leader moves
	// the task force deadline. Every second move violates the
	// outstanding requests' deadlines.
	DeadlineMovesPerForce int
	// NoiseActivitiesPerForce adds extra investigate-activity rounds per
	// force: pure enactment noise from the awareness perspective.
	NoiseActivitiesPerForce int
}

// DefaultOverloadConfig is the EXPERIMENTS.md baseline point.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		TaskForces:              4,
		MembersPerForce:         4,
		RequestsPerForce:        2,
		DeadlineMovesPerForce:   4,
		NoiseActivitiesPerForce: 6,
	}
}

// SystemMetrics scores one awareness-provisioning approach against the
// scenario's ground truth.
type SystemMetrics struct {
	// Delivered is the total number of notifications handed to
	// participants.
	Delivered int
	// Hits is how many deliveries were relevant (matched a ground-truth
	// item for that participant).
	Hits int
	// Covered is how many distinct ground-truth items were covered by
	// at least one delivery.
	Covered int
}

// Precision is the fraction of deliveries that were relevant.
func (m SystemMetrics) Precision() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Delivered)
}

// Recall returns the fraction of relevant items covered, given the total.
func (m SystemMetrics) Recall(relevant int) float64 {
	if relevant == 0 {
		return 0
	}
	return float64(m.Covered) / float64(relevant)
}

// OverloadResult is the outcome of one E7 run.
type OverloadResult struct {
	Config       OverloadConfig
	Participants int
	// RawEvents is how many primitive events the scenario emitted.
	RawEvents int
	// Relevant is the size of the ground truth: the number of
	// (participant, violation) pairs that should be known.
	Relevant int
	CMI      SystemMetrics
	PubSub   SystemMetrics
	Monitor  SystemMetrics
}

// groundTruthKey identifies one piece of awareness someone needed: the
// participant and the deadline-violation occurrence (request instance +
// move ordinal).
type groundTruthKey struct {
	participant string
	request     string
	move        int
}

// RunOverload runs the same deterministic crisis scenario through three
// awareness-provisioning approaches at once:
//
//   - CMI customized awareness (the Section 5.4 DeadlineViolation schema,
//     delivered to the scoped Requestor role);
//   - an Elvin-style content-filtered publish/subscribe baseline: every
//     primitive event is published; each requestor subscribes to deadline
//     changes of their own task force's context (the strongest filter
//     content-based subscription can express — it cannot compare two
//     deadlines, so it forwards every move, violating or not);
//   - the built-in WfMS monitoring baseline: workers receive their own
//     activity events, managers (the crisis leader) receive everything.
//
// The scenario's ground truth is the set of (participant, violation)
// pairs; the result scores each approach's delivered volume, precision
// and recall against it.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.TaskForces < 1 || cfg.MembersPerForce < 2 {
		return nil, fmt.Errorf("crisis: overload config needs >=1 force and >=2 members")
	}
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
	// Register the task force process as a top-level schema and define
	// only the Section 5.4 awareness schema.
	if err := sys.RegisterProcess(model.TaskForce); err != nil {
		return nil, err
	}
	if err := sys.DefineAwareness(model.Awareness[0]); err != nil { // DeadlineViolation
		return nil, err
	}

	nStaff := cfg.TaskForces * cfg.MembersPerForce
	staff, err := SeedStaff(sys, nStaff)
	if err != nil {
		return nil, err
	}

	// --- Baseline wiring ----------------------------------------------

	// WfMS monitoring baseline: all members are workers; the crisis
	// leader manages everything.
	mon := monitor.New(nil)
	for _, m := range staff.Epidemiologists {
		mon.AddWorker(m)
	}
	mon.AddManager(staff.Leader)
	sys.Coordination().Observe(mon)

	// Elvin baseline: publish every primitive event.
	broker := pubsub.NewBroker()
	var psMu sync.Mutex
	psDeliveries := map[string][]pubsub.Notification{}
	var rawEvents int
	publish := event.ConsumerFunc(func(ev event.Event) {
		rawEvents++
		broker.Notify(pubsub.FromEvent(ev))
	})
	sys.Coordination().Observe(publish)
	sys.Contexts().Observe(publish)

	subscribeRequestor := func(member, tfContextID string) error {
		_, err := broker.Subscribe(member, pubsub.All{
			pubsub.Cmp{Field: event.PType, Op: "==", Value: string(event.TypeContext)},
			pubsub.Cmp{Field: event.PContextID, Op: "==", Value: tfContextID},
			pubsub.Cmp{Field: event.PFieldName, Op: "==", Value: "TaskForceDeadline"},
		}, func(n pubsub.Notification) {
			psMu.Lock()
			psDeliveries[member] = append(psDeliveries[member], n)
			psMu.Unlock()
		})
		return err
	}

	if err := sys.Start(); err != nil {
		return nil, err
	}

	// --- Scenario ------------------------------------------------------

	type request struct {
		id        string
		requestor string
		deadline  time.Time
	}
	type force struct {
		id       string
		leader   string
		members  []string
		ctxID    string
		requests []request
	}
	var forces []force
	truth := map[groundTruthKey]bool{}

	t0 := clk.Now()
	horizon := t0.Add(1000 * time.Hour)

	for f := 0; f < cfg.TaskForces; f++ {
		members := staff.Epidemiologists[f*cfg.MembersPerForce : (f+1)*cfg.MembersPerForce]
		pi, err := sys.StartProcess("TaskForce", staff.Leader)
		if err != nil {
			return nil, err
		}
		fo := force{id: pi.ID(), leader: members[0], members: members}
		ctxID, ok := sys.Coordination().ContextID(pi.ID(), "tfc")
		if !ok {
			return nil, fmt.Errorf("crisis: no tfc context")
		}
		fo.ctxID = ctxID
		if err := sys.SetScopedRole(pi.ID(), "tfc", "TaskForceLeader", fo.leader); err != nil {
			return nil, err
		}
		if err := sys.SetScopedRole(pi.ID(), "tfc", "TaskForceMembers", members...); err != nil {
			return nil, err
		}
		if err := sys.SetContextField(pi.ID(), "tfc", "TaskForceDeadline", horizon); err != nil {
			return nil, err
		}
		if err := drive(sys, pi.ID(), "Organize", staff.Leader, clk, time.Hour); err != nil {
			return nil, err
		}
		// Issue the information requests.
		for r := 0; r < cfg.RequestsPerForce; r++ {
			requestor := members[r%len(members)]
			var reqID string
			if r == 0 {
				ai, err := findReady(sys, pi.ID(), "RequestInfo")
				if err != nil {
					return nil, err
				}
				reqID = ai
			} else {
				info, err := sys.Coordination().Instantiate(pi.ID(), "RequestInfo", staff.Leader)
				if err != nil {
					return nil, err
				}
				reqID = info.ID
			}
			if err := sys.Coordination().Start(reqID, staff.Leader); err != nil {
				return nil, err
			}
			if err := sys.SetScopedRole(reqID, "irc", "Requestor", requestor); err != nil {
				return nil, err
			}
			deadline := clk.Now().Add(time.Duration(100+10*r) * time.Hour)
			if err := sys.SetContextField(reqID, "irc", "RequestDeadline", deadline); err != nil {
				return nil, err
			}
			fo.requests = append(fo.requests, request{id: reqID, requestor: requestor, deadline: deadline})
			if err := subscribeRequestor(requestor, ctxID); err != nil {
				return nil, err
			}
			clk.Advance(time.Hour)
		}
		// Noise: investigation rounds, pure enactment events.
		for n := 0; n < cfg.NoiseActivitiesPerForce; n++ {
			member := members[n%len(members)]
			var actID string
			ai, err := findReady(sys, pi.ID(), "Investigate")
			if err == nil {
				actID = ai
			} else {
				info, err := sys.Coordination().Instantiate(pi.ID(), "Investigate", member)
				if err != nil {
					return nil, err
				}
				actID = info.ID
			}
			if err := sys.Coordination().Start(actID, member); err != nil {
				return nil, err
			}
			clk.Advance(30 * time.Minute)
			if err := sys.Coordination().Complete(actID, member); err != nil {
				return nil, err
			}
		}
		forces = append(forces, fo)
	}

	// Deadline moves: every second move lands before the outstanding
	// request deadlines (a violation); the others move it far out.
	for mv := 0; mv < cfg.DeadlineMovesPerForce; mv++ {
		for fi := range forces {
			fo := &forces[fi]
			var newDeadline time.Time
			violates := mv%2 == 1
			if violates {
				// Anchored to scenario start: request deadlines all lie
				// at least 100h after their creation, so a value near t0
				// violates every outstanding request regardless of how
				// long the setup phase ran.
				newDeadline = t0.Add(time.Duration(mv+1) * time.Minute)
			} else {
				newDeadline = horizon.Add(time.Duration(mv) * time.Hour)
			}
			if err := sys.Contexts().SetField(fo.ctxID, "TaskForceDeadline", newDeadline); err != nil {
				return nil, err
			}
			if violates {
				for _, rq := range fo.requests {
					truth[groundTruthKey{rq.requestor, rq.id, mv}] = true
				}
			}
			clk.Advance(15 * time.Minute)
		}
	}
	sys.Drain()

	// --- Scoring --------------------------------------------------------

	res := &OverloadResult{
		Config:       cfg,
		Participants: nStaff + 1,
		RawEvents:    rawEvents,
		Relevant:     len(truth),
	}

	// CMI: notifications are exact (schema + request instance).
	coveredCMI := map[groundTruthKey]bool{}
	for _, p := range sys.Store().Participants() {
		hist, err := sys.Store().History(p)
		if err != nil {
			return nil, err
		}
		res.CMI.Delivered += len(hist)
		seq := 0
		for _, n := range hist {
			if n.Schema != "DeadlineViolation" {
				continue
			}
			reqID, _ := n.Params[event.PProcessInstanceID].(string)
			// Match this delivery to the next uncovered violation move
			// for this (participant, request).
			for mv := 0; mv < cfg.DeadlineMovesPerForce; mv++ {
				k := groundTruthKey{p, reqID, mv}
				if truth[k] && !coveredCMI[k] {
					coveredCMI[k] = true
					res.CMI.Hits++
					break
				}
			}
			seq++
		}
	}
	res.CMI.Covered = len(coveredCMI)

	// PubSub: a delivery is a hit when the delivered deadline value
	// actually violates one of the member's request deadlines.
	coveredPS := map[groundTruthKey]bool{}
	psMu.Lock()
	for member, notes := range psDeliveries {
		res.PubSub.Delivered += len(notes)
		for _, n := range notes {
			newVal, ok := n[event.PNewFieldValue].(time.Time)
			if !ok {
				continue
			}
			hit := false
			for fi := range forces {
				for _, rq := range forces[fi].requests {
					if rq.requestor != member {
						continue
					}
					if !newVal.After(rq.deadline) { // tfDeadline <= requestDeadline
						hit = true
						for mv := 0; mv < cfg.DeadlineMovesPerForce; mv++ {
							k := groundTruthKey{member, rq.id, mv}
							if truth[k] && !coveredPS[k] {
								coveredPS[k] = true
								break
							}
						}
					}
				}
			}
			if hit {
				res.PubSub.Hits++
			}
		}
	}
	psMu.Unlock()
	res.PubSub.Covered = len(coveredPS)

	// Monitor baseline: raw activity events never express a deadline
	// violation, so hits and coverage are zero by construction; what it
	// shows is the delivered volume.
	for _, c := range mon.Counts() {
		res.Monitor.Delivered += int(c)
	}
	return res, nil
}

func findReady(sys *cmi.System, processID, varName string) (string, error) {
	for _, ai := range sys.Coordination().ActivitiesOf(processID) {
		if ai.Var == varName && ai.State == cmi.Ready {
			return ai.ID, nil
		}
	}
	return "", fmt.Errorf("crisis: no ready %q in %s", varName, processID)
}

func drive(sys *cmi.System, processID, varName, user string, clk *vclock.Virtual, dur time.Duration) error {
	id, err := findReady(sys, processID, varName)
	if err != nil {
		return err
	}
	if err := sys.Coordination().Start(id, user); err != nil {
		return err
	}
	clk.Advance(dur)
	return sys.Coordination().Complete(id, user)
}
