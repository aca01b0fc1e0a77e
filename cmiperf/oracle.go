package main

import (
	"fmt"
	"sync"
	"time"
)

// maxFaultNotes bounds how many oracle faults are kept verbatim; the
// rest are only counted.
const maxFaultNotes = 20

// An expectation is one triggering action still waiting for its frame.
type expectation struct {
	detail string    // what the notification must carry (e.g. the written value)
	sent   time.Time // when the client sent the action
}

// The oracle correlates subscriber frames with triggering actions.
// Actions are grouped by the instance id the notification's params carry
// (the activity instance for a completed step, the process instance for
// a context write); within a group frames must arrive in action order.
// It checks that every action yields exactly one frame and that frames
// arrive in journal id order with no gap.
type oracle struct {
	mu       sync.Mutex
	pending  map[string][]expectation
	open     int
	expected int
	lastID   int64
	faults   int
	notes    []string
	// onMatch receives each matched frame with its action; called with
	// mu held.
	onMatch func(e expectation, at time.Time)
}

func newOracle() *oracle {
	return &oracle{pending: make(map[string][]expectation)}
}

// expect registers a triggering action before it is sent (its frame may
// arrive before the response does).
func (o *oracle) expect(group, detail string, sent time.Time) {
	o.mu.Lock()
	o.pending[group] = append(o.pending[group], expectation{detail: detail, sent: sent})
	o.open++
	o.expected++
	o.mu.Unlock()
}

// frame records one notification frame received by the subscriber and
// reports whether it matched an outstanding action.
func (o *oracle) frame(id int64, group, detail string, at time.Time) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if id != o.lastID+1 {
		o.faultLocked("frame id %d after %d: notifications missing, duplicated or out of order", id, o.lastID)
	}
	if id > o.lastID {
		o.lastID = id
	}
	q := o.pending[group]
	if len(q) == 0 {
		o.faultLocked("frame id %d for %q matches no outstanding action (duplicate or spurious)", id, group)
		return false
	}
	e := q[0]
	if len(q) == 1 {
		delete(o.pending, group)
	} else {
		o.pending[group] = q[1:]
	}
	o.open--
	if e.detail != detail {
		o.faultLocked("frame id %d for %q carries %q, action wrote %q", id, group, detail, e.detail)
	}
	if o.onMatch != nil {
		o.onMatch(e, at)
	}
	return true
}

// outstanding returns how many actions still await their frame.
func (o *oracle) outstanding() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.open
}

// finish counts every action still unanswered as a missing frame.
func (o *oracle) finish() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.open > 0 {
		o.faultsLocked(o.open, "%d triggering action(s) never produced a frame", o.open)
	}
}

// fault records a mismatch found outside frame correlation (for example
// in a durable queue).
func (o *oracle) fault(format string, args ...any) {
	o.mu.Lock()
	o.faultLocked(format, args...)
	o.mu.Unlock()
}

func (o *oracle) faultLocked(format string, args ...any) { o.faultsLocked(1, format, args...) }

// faultsLocked counts n faults under one description.
func (o *oracle) faultsLocked(n int, format string, args ...any) {
	o.faults += n
	if len(o.notes) < maxFaultNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// result returns the fault count and the kept fault descriptions.
func (o *oracle) result() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.faults, append([]string(nil), o.notes...)
}

// checkKeyed compares a durable queue's notifications, reduced to their
// correlation keys, with the actions that should have produced them:
// each key exactly once.
func (o *oracle) checkKeyed(queue string, got []string, want map[string]bool) {
	seen := make(map[string]bool, len(got))
	for _, k := range got {
		switch {
		case seen[k]:
			o.fault("%s: %q queued twice", queue, k)
		case !want[k]:
			o.fault("%s: %q queued but no such action completed", queue, k)
		}
		seen[k] = true
	}
	missing := 0
	for k := range want {
		if !seen[k] {
			missing++
		}
	}
	if missing > 0 {
		o.mu.Lock()
		o.faultsLocked(missing, "%s: %d of %d completed actions missing", queue, missing, len(want))
		o.mu.Unlock()
	}
}
