package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/obs"
)

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 float64
		beyond   int
		ok       bool
	}{
		{1000, 500, 990, 10, true},
		{999, 500, 990, 9, false},
		{2000, 1000, 1980, 20, true},
		{100, 50, 99, 1, false},
		{0, 0, 0, 0, false},
	} {
		xs := make([]float64, 0, tc.n)
		for i := tc.n; i >= 1; i-- {
			xs = append(xs, float64(i))
		}
		d := summarize(xs)
		if d.N != tc.n || d.P50 != tc.p50 || d.P99 != tc.p99 || d.P99Beyond != tc.beyond || d.tailReportable() != tc.ok {
			t.Errorf("n=%d: got %+v reportable=%v, want p50=%v p99=%v beyond=%d reportable=%v", tc.n, d, d.tailReportable(), tc.p50, tc.p99, tc.beyond, tc.ok)
		}
	}
}

// The p99 is pooled over the whole run: a stall confined to a short
// stretch of it still reaches the tail.
func TestP99PooledOverRun(t *testing.T) {
	var xs []float64
	for i := 0; i < 2000; i++ {
		v := 1.0
		if i >= 1000 && i < 1030 { // 1.5% of the samples, all in one stretch
			v = 50
		}
		xs = append(xs, v)
	}
	if d := summarize(xs); d.P50 != 1 || d.P99 != 50 || d.P99Beyond != 20 {
		t.Fatalf("got %+v, want P50=1 P99=50 beyond=20", d)
	}
}

// The delta parser reads the obs registry's own exposition: counters
// summed across label sets, histograms through _sum and _count.
func TestRegistryDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("cmi_test_total", "help", obs.L("shard", "0"))
	c1 := reg.Counter("cmi_test_total", "help", obs.L("shard", "1"))
	h := reg.Histogram("cmi_test_seconds", "help", []time.Duration{time.Millisecond, time.Second})
	v := reg.ValueHistogram("cmi_test_batch", "help", []float64{1, 8})
	snap := func() promSnapshot {
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		p, err := parseProm(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	c.Add(5)
	h.Observe(2 * time.Millisecond)
	before := snap()
	c.Add(3)
	c1.Add(4)
	h.Observe(4 * time.Millisecond)
	h.Observe(6 * time.Millisecond)
	v.Observe(2)
	v.Observe(6)
	d := snap().minus(before)
	if got := d.sum("cmi_test_total"); got != 7 {
		t.Errorf("counter delta = %v, want 7", got)
	}
	if got := d.sum("cmi_test_total", `shard="1"`); got != 4 {
		t.Errorf("labelled counter delta = %v, want 4", got)
	}
	if got := d.histMean("cmi_test_seconds"); got < 0.0049 || got > 0.0051 {
		t.Errorf("histogram mean = %v s, want 0.005", got)
	}
	if got := d.histMean("cmi_test_batch"); got != 4 {
		t.Errorf("value histogram mean = %v, want 4", got)
	}
	if got := d.histMean("cmi_absent_seconds"); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
	if _, err := parseProm("cmi_x{a=\"b\"} notanumber\n"); err == nil {
		t.Error("malformed value parsed")
	}
}

func TestOracleCorrelatesFrames(t *testing.T) {
	o := newOracle()
	t0 := time.Now()
	var lat []time.Duration
	o.onMatch = func(e expectation, at time.Time) { lat = append(lat, at.Sub(e.sent)) }
	o.expect("a-1", "", t0)
	o.expect("p-1", "95", t0)
	o.expect("p-1", "97", t0.Add(time.Millisecond))
	if !o.frame(1, "a-1", "", t0.Add(2*time.Millisecond)) ||
		!o.frame(2, "p-1", "95", t0.Add(3*time.Millisecond)) ||
		!o.frame(3, "p-1", "97", t0.Add(5*time.Millisecond)) {
		t.Fatal("frame did not match its action")
	}
	o.finish()
	if n, notes := o.result(); n != 0 {
		t.Fatalf("faults %d: %v", n, notes)
	}
	want := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	for i := range want {
		if lat[i] != want[i] {
			t.Fatalf("latencies %v, want %v", lat, want)
		}
	}
}

type frameIn struct {
	id            int64
	group, detail string
}

// A dropped, duplicated, reordered or wrong frame must fail the run.
func TestOracleRejectsBadStreams(t *testing.T) {
	t0 := time.Now()
	for _, tc := range []struct {
		name   string
		frames []frameIn
	}{
		{"dropped", []frameIn{{1, "a-1", ""}, {3, "a-3", ""}}},
		{"duplicated", []frameIn{{1, "a-1", ""}, {2, "a-2", ""}, {2, "a-2", ""}, {3, "a-3", ""}}},
		{"out of order", []frameIn{{2, "a-2", ""}, {1, "a-1", ""}, {3, "a-3", ""}}},
		{"wrong value", []frameIn{{1, "a-1", ""}, {2, "a-2", "91"}, {3, "a-3", ""}}},
		{"spurious", []frameIn{{1, "a-1", ""}, {2, "a-2", ""}, {3, "a-3", ""}, {4, "a-9", ""}}},
	} {
		o := newOracle()
		for _, g := range []string{"a-1", "a-2", "a-3"} {
			o.expect(g, "", t0)
		}
		for _, f := range tc.frames {
			o.frame(f.id, f.group, f.detail, t0)
		}
		o.finish()
		if n, _ := o.result(); n == 0 {
			t.Errorf("%s: oracle passed a bad stream", tc.name)
		}
	}
}

func TestCheckKeyedQueues(t *testing.T) {
	want := map[string]bool{"a-1": true, "a-2": true}
	for _, tc := range []struct {
		name   string
		got    []string
		faults bool
	}{
		{"exact", []string{"a-1", "a-2"}, false},
		{"missing", []string{"a-1"}, true},
		{"duplicate", []string{"a-1", "a-2", "a-2"}, true},
		{"unknown", []string{"a-1", "a-2", "a-3"}, true},
	} {
		o := newOracle()
		o.checkKeyed("q", tc.got, want)
		if n, _ := o.result(); (n > 0) != tc.faults {
			t.Errorf("%s: %d faults, want faults=%v", tc.name, n, tc.faults)
		}
	}
}

func TestLevelHighModel(t *testing.T) {
	writes := []ctxWrite{{"Level", 89}, {"Level", 90}, {"F1", 1099}, {"Level", 99}, {"F7", 7050}}
	if got := levelHighModel(writes); got != 2 {
		t.Fatalf("model predicts %d, want 2", got)
	}
}

// The stage segments of a traced notification telescope to its
// end-to-end latency, with or without the federation hop. Each round's
// stack reuses instance ids, so a tracer keeps rounds apart, and it
// drops what falls outside the rounds' measured cycles.
func TestStageSegmentsSumToEndToEnd(t *testing.T) {
	t0 := time.Now()
	for _, remote := range []bool{false, true} {
		tr := newTracer()
		var seq int64
		for round := 0; round < 2; round++ {
			at := func(us int) time.Time {
				return t0.Add(time.Duration(round)*time.Second + time.Duration(us)*time.Microsecond)
			}
			seq++
			tr.stamp(stSent, "a-1", at(0), seq)
			tr.request(seq, 0, true, at(0), at(900))
			tr.handler(seq, at(100), at(800))
			tr.stamp(stObserve, "a-1", at(300), 0)
			tr.stamp(stDetect, "a-1", at(1200), 0)
			end := at(1100) // frame before the hook ran
			if remote {
				tr.stamp(stRemoteIn, "a-1", at(1500), 0)
				tr.stamp(stRemoteOut, "a-1", at(1900), 0)
				end = at(2000)
			}
			tr.stamp(stFrame, "a-1", end, 0)
			tr.stamp(stSent, "a-2", at(500_000), 0) // after the measured cycles
			tr.round(at(0), at(400_000))
		}
		lt := tr.breakdown(remote)
		// Without the hop the frame beats the detection hook, so the
		// stamps are out of path order; with it they are in order.
		if lt.traced != 2 || lt.complete != 2 || (lt.unordered == 2) == remote {
			t.Fatalf("remote=%v: %+v", remote, lt)
		}
		for i := range lt.total {
			sum := lt.gap[i] + lt.emit[i] + lt.pipeline[i] + lt.frame[i]
			if remote {
				sum += lt.forward[i] + lt.remoteCommit[i]
			}
			if d := sum - lt.total[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("remote=%v: segments sum to %v ms, end-to-end %v ms", remote, sum, lt.total[i])
			}
		}
		if lt.loopback[0] != 0.2 || lt.writeHandler[0] != 0.7 {
			t.Fatalf("remote=%v: loopback %v handler %v", remote, lt.loopback, lt.writeHandler)
		}
	}
}

// Every workload runs end to end on a real stack, untraced and traced,
// with the oracle satisfied and every traced notification fully
// stamped.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real stacks with fsynced journals")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			short := *wl
			short.cycles = 200
			for _, traced := range []bool{false, true} {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				// One round of measured cycles, and two more stacks built
				// only to time their set-up.
				res, setups, err := measureOnce(&short, t.TempDir(), 1, time.Nanosecond, 1, 3, tr)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 || len(setups) != 3 || res.rounds != 1 || len(res.aware) == 0 || len(res.refWrites) != short.cycles || len(res.refReads) != short.cycles {
					t.Fatalf("traced=%v: %d failed of %d attempted in %d rounds, %d setups: %v", traced, res.failed, res.attempted, res.rounds, len(setups), res.notes)
				}
				if !traced {
					continue
				}
				lt := tr.breakdown(wl.remote)
				if lt.traced == 0 || lt.complete != lt.traced {
					t.Fatalf("traced %d, complete %d", lt.traced, lt.complete)
				}
			}
		})
	}
}

// The reference route answers POST with one fsynced 64-byte append and
// GET with no disk work, and hands every other path to the CMI handler.
func TestRefHandler(t *testing.T) {
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "ref"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	passed := 0
	h := &refHandler{f: f, next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { passed++ })}
	size := func() int64 {
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	for _, tc := range []struct {
		method, path string
		grow         int64
		passed       int
	}{
		{http.MethodPost, refPath, 64, 0},
		{http.MethodGet, refPath, 0, 0},
		{http.MethodGet, "/api/worklist/w1", 0, 1},
		{http.MethodPost, refPath, 64, 1},
	} {
		before := size()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if got := size() - before; got != tc.grow || passed != tc.passed {
			t.Fatalf("%s %s: file grew %d (want %d), %d passed on (want %d)", tc.method, tc.path, got, tc.grow, passed, tc.passed)
		}
		if tc.path == refPath && (rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}`) {
			t.Fatalf("%s %s: %d %q", tc.method, tc.path, rec.Code, rec.Body.String())
		}
	}
}
