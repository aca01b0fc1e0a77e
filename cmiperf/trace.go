package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/federation"
)

// seqHeader carries the benchmark's request sequence number from the
// client transport to the handler wrapper, so both sides of one request
// can be joined without touching the program.
const seqHeader = "X-Cmiperf-Seq"

// Stages of one notification, in path order. Every stamp is taken from
// outside the program: the client, the handler wrapper, an engine
// observer, a detection hook, or the subscriber.
const (
	stSent      = iota // client sends the triggering action
	stObserve          // primitive event emitted (enact/context observer, after the WAL commit)
	stDetect           // notification queued (OnDetection hook)
	stRemoteIn         // B's remote-notification handler entered (handoff)
	stRemoteOut        // B's remote-notification handler returned (handoff)
	stFrame            // SSE frame received by the subscriber
	numStages
)

// Stamps are offsets from the tracer's base time on the monotonic
// clock; zero means "not stamped". Keeping them pointer-free keeps the
// traced run's large stamp tables out of the garbage collector's scan.
type reqStamp struct {
	write      bool
	client     int
	start, end time.Duration // client call
	hIn, hOut  time.Duration // handler wrapper
}

type noteStamp struct {
	seq int64 // request that triggered it
	at  [numStages]time.Duration
}

// A tracer keeps every stamp of a traced run in memory; spans are built
// and written when the run ends.
type tracer struct {
	base    time.Time
	nextSeq atomic.Int64

	mu    sync.Mutex
	reqs  []reqStamp // by request sequence number - 1
	notes map[string]*noteStamp
	// nth counts, per stage, how often each group was stamped in the
	// current round: the n-th stamp of group g at any stage in round k
	// belongs to notification "k/g#n" (each round's stack reuses ids).
	nth [numStages]map[string]int
	// windows are the rounds' measured intervals, as offsets.
	windows [][2]time.Duration
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), notes: make(map[string]*noteStamp)}
	t.resetNth()
	return t
}

func (t *tracer) resetNth() {
	for i := range t.nth {
		t.nth[i] = make(map[string]int)
	}
}

// round closes a round whose measured cycles ran from start to end.
func (t *tracer) round(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windows = append(t.windows, [2]time.Duration{t.off(start), t.off(end)})
	t.resetNth()
}

// measured reports whether offset x falls in a round's measured cycles.
func (t *tracer) measured(x time.Duration) bool {
	for _, w := range t.windows {
		if x >= w[0] && x < w[1] {
			return true
		}
	}
	return false
}

func (t *tracer) off(at time.Time) time.Duration { return at.Sub(t.base) }

// stamp records that the next notification of group reached stage at t.
func (t *tracer) stamp(stage int, group string, at time.Time, seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nth[stage][group]++
	key := strconv.Itoa(len(t.windows)) + "/" + group + "#" + strconv.Itoa(t.nth[stage][group])
	n := t.notes[key]
	if n == nil {
		n = &noteStamp{}
		t.notes[key] = n
	}
	n.at[stage] = t.off(at)
	if stage == stSent {
		n.seq = seq
	}
}

func (t *tracer) request(seq int64, client int, write bool, start, end time.Time) {
	t.mu.Lock()
	r := t.req(seq)
	r.client, r.write, r.start, r.end = client, write, t.off(start), t.off(end)
	t.mu.Unlock()
}

func (t *tracer) handler(seq int64, in, out time.Time) {
	t.mu.Lock()
	r := t.req(seq)
	r.hIn, r.hOut = t.off(in), t.off(out)
	t.mu.Unlock()
}

// req returns the stamp of request seq (1-based); the pointer is valid
// only while t.mu is held.
func (t *tracer) req(seq int64) *reqStamp {
	for int64(len(t.reqs)) < seq {
		t.reqs = append(t.reqs, reqStamp{})
	}
	return &t.reqs[seq-1]
}

// handled returns the stamp of request seq if its handler was stamped.
func (t *tracer) handled(seq int64) (reqStamp, bool) {
	if seq < 1 || seq > int64(len(t.reqs)) || t.reqs[seq-1].hIn == 0 {
		return reqStamp{}, false
	}
	return t.reqs[seq-1], true
}

// seqTransport stamps each request with the sequence number its client
// set before the call.
type seqTransport struct {
	next http.RoundTripper
	seq  int64 // set by the owning client goroutine before each call
}

func (s *seqTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(seqHeader, strconv.FormatInt(s.seq, 10))
	return s.next.RoundTrip(r)
}

// tap wraps a domain's federation handler and stamps handler entry and
// exit per request. On the remote-notification route it also stamps the
// forwarded notification, read from the request body.
type tap struct {
	next  http.Handler
	tr    *tracer
	group func(params map[string]any) (string, string, bool)
}

func (h *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in := time.Now()
	group := ""
	if r.URL.Path == "/api/remote/notifications" {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var rn federation.RemoteNotification
			if json.Unmarshal(body, &rn) == nil {
				if g, _, ok := h.group(rn.Notification.Params); ok {
					group = g
				}
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	h.next.ServeHTTP(w, r)
	out := time.Now()
	if group != "" {
		h.tr.stamp(stRemoteIn, group, in, 0)
		h.tr.stamp(stRemoteOut, group, out, 0)
	}
	if seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64); err == nil {
		h.tr.handler(seq, in, out)
	}
}

// layerTimes is the traced run's per-stage breakdown.
type layerTimes struct {
	writeHandler, readHandler, loopback []float64
	gap, emit, pipeline, forward        []float64
	remoteCommit, frame, total          []float64
	complete, traced                    int
	// unordered counts complete notifications whose stamps are not in
	// path order (some segment is negative).
	unordered int
}

// breakdown splits every traced notification sent in the rounds'
// measured cycles into contiguous stage segments, and every request
// into handler and loopback time.
func (t *tracer) breakdown(remote bool) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt layerTimes
	for _, r := range t.reqs {
		if !t.measured(r.start) || r.hIn == 0 || r.end == 0 {
			continue
		}
		h := r.hOut - r.hIn
		if r.write {
			lt.writeHandler = append(lt.writeHandler, ms(h))
		} else {
			lt.readHandler = append(lt.readHandler, ms(h))
		}
		lt.loopback = append(lt.loopback, ms(r.end-r.start-h))
	}
	for _, n := range t.notes {
		if !t.measured(n.at[stSent]) {
			continue
		}
		lt.traced++
		r, ok := t.handled(n.seq)
		if !ok || !n.complete(remote) {
			continue
		}
		lt.complete++
		p := n.points(r.hIn, remote)
		seg := make([]float64, len(p)-1)
		ordered := true
		for i := range seg {
			seg[i] = ms(p[i+1] - p[i])
			ordered = ordered && p[i+1] >= p[i]
		}
		if !ordered {
			lt.unordered++
		}
		lt.total = append(lt.total, ms(n.at[stFrame]-n.at[stSent]))
		lt.gap = append(lt.gap, seg[0])
		lt.emit = append(lt.emit, seg[1])
		lt.pipeline = append(lt.pipeline, seg[2])
		if remote {
			lt.forward = append(lt.forward, seg[3])
			lt.remoteCommit = append(lt.remoteCommit, seg[4])
		}
		lt.frame = append(lt.frame, seg[len(seg)-1])
	}
	return lt
}

func (n *noteStamp) complete(remote bool) bool {
	for s, at := range n.at {
		if at == 0 && (remote || (s != stRemoteIn && s != stRemoteOut)) {
			return false
		}
	}
	return true
}

// points returns the stage boundaries of one notification: sent,
// handler in, observed, queued, [remote in, remote out,] frame. The
// segments between them telescope, so they sum to sent→frame exactly; a
// segment is negative when two concurrent paths finish in the other
// order (the frame can reach the subscriber before the goroutine running
// the detection hook is scheduled).
func (n *noteStamp) points(hIn time.Duration, remote bool) []time.Duration {
	p := []time.Duration{n.at[stSent], hIn, n.at[stObserve], n.at[stDetect]}
	if remote {
		p = append(p, n.at[stRemoteIn], n.at[stRemoteOut])
	}
	return append(p, n.at[stFrame])
}

var segmentNames = map[bool][]string{
	false: {"client->handler", "enact.emit", "awareness.pipeline", "stream.frame"},
	true:  {"client->handler", "enact.emit", "awareness.pipeline", "federation.forward", "federation.remote_commit", "stream.frame"},
}

// traceEvent is one Chrome trace-event ("X" complete event), the format
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans of every complete traced notification
// sent in the rounds' measured cycles: one "aware" span per
// notification with its stage spans as children, plus the triggering
// request's client and handler spans. Spans of one notification share
// its trace id; the timeline starts at the first round's measured
// cycles.
func (t *tracer) writeChrome(path string, remote bool, meta map[string]any) error {
	t.mu.Lock()
	var lo time.Duration
	if len(t.windows) > 0 {
		lo = t.windows[0][0]
	}
	keys := make([]string, 0, len(t.notes))
	for k, n := range t.notes {
		if t.measured(n.at[stSent]) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return t.notes[keys[i]].at[stSent] < t.notes[keys[j]].at[stSent] })
	us := func(x time.Duration) float64 { return float64(x-lo) / float64(time.Microsecond) }
	span := func(name, cat string, a, b time.Duration, pid, tid int, args map[string]any) traceEvent {
		if b < a {
			// Chrome spans cannot run backwards; keep the signed length.
			args["signed_ms"] = ms(b - a)
			a, b = b, a
		}
		return traceEvent{Name: name, Cat: cat, Ph: "X", Ts: us(a), Dur: us(b) - us(a), Pid: pid, Tid: tid, Args: args}
	}
	var evs []traceEvent
	for i, k := range keys {
		n := t.notes[k]
		r, ok := t.handled(n.seq)
		if !ok || !n.complete(remote) {
			continue
		}
		lane := i%32 + 1
		evs = append(evs, span("aware", "notification", n.at[stSent], n.at[stFrame], 1, lane, map[string]any{"trace": k}))
		p := n.points(r.hIn, remote)
		for j, name := range segmentNames[remote] {
			evs = append(evs, span(name, "stage", p[j], p[j+1], 1, lane, map[string]any{"trace": k, "parent": "aware"}))
		}
		evs = append(evs,
			span("http.client", "request", r.start, r.end, 2, r.client+1, map[string]any{"trace": k, "seq": n.seq}),
			span("http.handler", "request", r.hIn, r.hOut, 2, r.client+1, map[string]any{"trace": k, "seq": n.seq, "parent": "http.client"}))
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "metadata": meta}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
