package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/federation"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/stream"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

const (
	// window is how many notifications may be unreceived at the
	// subscriber before a client pauses its next triggering action. It
	// bounds the asynchronous detect→deliver backlog, so latency measures
	// the program and not a growing queue, while still letting commit
	// groups batch.
	window = 8
	// windowStall is how long a client waits for a window slot before
	// the run is declared broken (a notification that never arrives).
	windowStall = 10 * time.Second
	// drainTimeout bounds the wait for outstanding frames after a
	// round's cycles.
	drainTimeout = 15 * time.Second
	// sampleEvery is the cadence of heap and spool-depth sampling. The
	// detection queue depth is sampled every gaugeEvery-th tick only: it
	// needs a full registry scrape, which renders every awareness node's
	// statistics and costs milliseconds on the watch workload.
	sampleEvery = 10 * time.Millisecond
	gaugeEvery  = 100
	// refPath is the benchmark's reference route, served on every
	// domain's listener in front of the CMI handler (see refHandler).
	refPath = "/cmiperf/ref"
)

// A domain is one CMI system served over a real loopback listener.
type domain struct {
	sys      *system.System
	srv      *http.Server
	url      string
	stateDir string
	served   chan struct{}
	// ref is the file the reference route appends to and fsyncs.
	ref *os.File
}

// openDomain builds a system the way a durable production daemon runs:
// fsynced journals, wall clock, one detection shard and (by default) one
// enactment stripe per processor, state on the benchmark's disk.
func openDomain(stateDir string) (*domain, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	sys, err := system.New(system.Config{
		Clock:       vclock.NewSystem(),
		StateDir:    stateDir,
		SyncJournal: true,
		Shards:      runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	return &domain{sys: sys, stateDir: stateDir}, nil
}

// serve starts the federation API on 127.0.0.1:0, with the reference
// route in front of it. With a tracer the CMI handler is wrapped so each
// request's handler entry and exit are stamped.
func (d *domain) serve(tr *tracer, group func(map[string]any) (string, string, bool)) error {
	ref, err := os.OpenFile(d.stateDir+".ref", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.ref = ref
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fsrv := federation.NewServer(d.sys)
	fsrv.MarkStarted()
	var h http.Handler = fsrv.Handler()
	if tr != nil {
		h = &tap{next: h, tr: tr, group: group}
	}
	h = &refHandler{next: h, f: ref}
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.url = "http://" + ln.Addr().String()
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return nil
}

// stopServing closes the listener and every connection, and waits for
// the serve loop to return.
func (d *domain) stopServing() {
	if d.srv != nil {
		d.srv.Close()
		<-d.served
		d.srv = nil
	}
}

func (d *domain) close() error {
	d.stopServing()
	err := d.sys.Close()
	if d.ref != nil {
		d.ref.Close()
		os.Remove(d.ref.Name())
	}
	if rerr := os.RemoveAll(d.stateDir); err == nil {
		err = rerr
	}
	return err
}

// refHandler serves the reference route and hands every other request
// to next. A reference request takes the host paths a CMI request takes
// (the client's loopback connection, net/http on both sides, a JSON
// reply) but runs no CMI code: a POST appends 64 bytes to a file beside
// the state directory and fsyncs it, the shape of a journaled write; a
// GET touches no disk, the shape of a read. Clients interleave them with
// their actions, so they time the host's speed at the same moments as
// the actions.
type refHandler struct {
	next http.Handler
	f    *os.File
}

var refRecord = make([]byte, 64)

func (h *refHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != refPath {
		h.next.ServeHTTP(w, r)
		return
	}
	io.Copy(io.Discard, r.Body)
	if r.Method == http.MethodPost {
		if _, err := h.f.Write(refRecord); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := h.f.Sync(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"ok":true}`)
}

// A stack is every process-local piece one workload run needs: the
// domains, the optional forwarder, and the subscriber.
type stack struct {
	domains []*domain
	fwd     *federation.Forwarder
	res     *federation.Resilience
	// families are the process instances the clients act on.
	families []string
	// sub is the SSE subscription of the participant that receives the
	// workload's notifications.
	sub    *stream.Subscription
	subDom *domain
	subWho string
}

func (s *stack) close() error {
	if s.sub != nil {
		s.sub.Close()
	}
	for _, d := range s.domains {
		d.stopServing()
	}
	var errs []error
	if s.fwd != nil {
		errs = append(errs, s.fwd.Close())
		s.res.Close()
	}
	for _, d := range s.domains {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// subscribe opens the SSE subscription and waits for the session's
// hello frame.
func (s *stack) subscribe() error {
	hello := make(chan struct{})
	tr := &helloTransport{next: &http.Transport{}, hello: hello}
	s.sub = stream.Subscribe(context.Background(), s.subDom.url, s.subWho, stream.ClientOptions{HTTP: &http.Client{Transport: tr}})
	select {
	case <-hello:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("no SSE hello from %s within 10s (%v)", s.subDom.url, s.sub.Err())
	}
}

// helloTransport signals when the first bytes of a stream response (the
// session's hello frame) arrive.
type helloTransport struct {
	next  http.RoundTripper
	hello chan struct{}
	once  sync.Once
}

func (t *helloTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusOK {
		resp.Body = &firstRead{ReadCloser: resp.Body, t: t}
	}
	return resp, err
}

type firstRead struct {
	io.ReadCloser
	t *helloTransport
}

func (f *firstRead) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if n > 0 {
		f.t.once.Do(func() { close(f.t.hello) })
	}
	return n, err
}

// A client is one closed-loop participant: it sends its next request
// as soon as the previous one returns.
type client struct {
	id    int
	who   string
	pc    *federation.ParticipantClient
	seqTr *seqTransport
	// hc and ref send the reference requests over the client's own
	// connection.
	hc   *http.Client
	ref  string
	rng  *rand.Rand
	fams []string
	// writes and reads are the latencies (ms) of requests sent in the
	// measured part of the round; done counts those completed.
	writes, reads []float64
	done          int
	// refWrites and refReads are the latencies (ms) of the reference
	// POSTs and GETs sent in the measured part of the round.
	refWrites, refReads []float64
	// attempted and failed count every request of the round, warm-up
	// included.
	attempted, failed int
	errs              []string
	completed         []string   // activity ids this client completed
	ctxWrites         []ctxWrite // context writes, in order
	// last is the latest value this client wrote per "family/field";
	// keys lists those keys in first-write order.
	last   map[string]int64
	keys   []string
	nreads int
}

// A trig names the notification a request is expected to trigger.
type trig struct{ group, detail string }

// do times one request. A triggering request registers its expectation
// with the oracle (and the tracer) before it is sent.
func (c *client) do(r *run, write bool, tg *trig, fn func() error) error {
	var seq int64
	if r.tr != nil {
		seq = r.tr.nextSeq.Add(1)
		c.seqTr.seq = seq
	}
	t0 := time.Now()
	if tg != nil {
		r.or.expect(tg.group, tg.detail, t0)
		if r.tr != nil {
			r.tr.stamp(stSent, tg.group, t0, seq)
		}
	}
	err := fn()
	t1 := time.Now()
	c.attempted++
	if err != nil {
		c.fail("%v", err)
	} else if r.measured(t0) && write {
		c.writes = append(c.writes, ms(t1.Sub(t0)))
	} else if r.measured(t0) {
		c.reads = append(c.reads, ms(t1.Sub(t0)))
	}
	if r.measured(t0) {
		c.done++
	}
	if r.tr != nil {
		r.tr.request(seq, c.id, write, t0, t1)
	}
	return err
}

// refs sends one reference POST and one reference GET.
func (c *client) refs(r *run) {
	for _, post := range []bool{true, false} {
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		t0 := time.Now()
		err := c.refOnce(method)
		t1 := time.Now()
		c.attempted++
		switch {
		case err != nil:
			c.fail("reference %s: %v", method, err)
		case !r.measured(t0):
		case post:
			c.refWrites = append(c.refWrites, ms(t1.Sub(t0)))
		default:
			c.refReads = append(c.refReads, ms(t1.Sub(t0)))
		}
	}
}

func (c *client) refOnce(method string) error {
	req, err := http.NewRequest(method, c.ref, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && (resp.StatusCode != http.StatusOK || string(b) != `{"ok":true}`) {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return err
}

// fail counts a wrong or refused response.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxFaultNotes {
		c.errs = append(c.errs, fmt.Sprintf("client %s: ", c.who)+fmt.Sprintf(format, args...))
	}
}

// A run is one round: one stack driven through a fixed number of
// cycles.
type run struct {
	wl      *workload
	tr      *tracer
	st      *stack
	or      *oracle
	clients []*client

	window   chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	// begun is when the measured cycles started (nil during warm-up);
	// every client has finished at end.
	begun atomic.Pointer[time.Time]
	end   time.Time
	aware []float64 // guarded by or.mu (filled from onMatch)
}

// measured reports whether a request sent at t belongs to the measured
// cycles.
func (r *run) measured(t time.Time) bool {
	b := r.begun.Load()
	return b != nil && !t.Before(*b)
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *run) halt() { r.stopOnce.Do(func() { close(r.stop) }) }

// acquire takes a window slot before a triggering action; it fails the
// run if the subscriber stops receiving.
func (r *run) acquire() bool {
	t := time.NewTimer(windowStall)
	defer t.Stop()
	select {
	case r.window <- struct{}{}:
		return true
	case <-r.stop:
		return false
	case <-t.C:
		r.or.fault("window stalled: %d notification(s) unreceived for %v", r.or.outstanding(), windowStall)
		r.halt()
		return false
	}
}

// setup builds a stack for the workload, from an empty state directory
// to the subscriber's SSE hello, and returns how long that took.
func setup(wl *workload, dir string, tr *tracer, nclients int) (*stack, time.Duration, error) {
	t0 := time.Now()
	st := &stack{}
	if err := wl.build(st, dir, tr, nclients); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := st.subscribe(); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// attachTracer hooks the stage observers onto the domain that enacts
// the workload's actions.
func (r *run) attachTracer() {
	a := r.st.domains[0].sys
	obs := event.ConsumerFunc(func(ev event.Event) {
		if g, ok := r.wl.observeGroup(ev); ok {
			r.tr.stamp(stObserve, g, time.Now(), 0)
		}
	})
	a.Coordination().Observe(obs)
	a.Contexts().Observe(obs)
	a.OnDetection(func(_ string, _ []string, ev event.Event) {
		at := time.Now()
		if g, _, ok := r.wl.noteGroup(delivery.SanitizeParams(ev.Params)); ok {
			r.tr.stamp(stDetect, g, at, 0)
		}
	})
}

// consume reads the subscription: every frame is correlated with its
// triggering action and frees a window slot.
func (r *run) consume(done chan<- struct{}) {
	defer close(done)
	for n := range r.st.sub.Events() {
		at := time.Now()
		g, detail, ok := r.wl.noteGroup(n.Params)
		if !ok {
			r.or.fault("frame id %d: unexpected notification %q", n.ID, n.Schema)
			continue
		}
		if r.tr != nil {
			r.tr.stamp(stFrame, g, at, 0)
		}
		if r.or.frame(n.ID, g, detail, at) {
			<-r.window
		}
	}
}

// sample records the heap peak (HeapInuse: heap object bytes plus
// unused heap span bytes) and, when traced, the spool and detection
// queue depths into res until stop is closed.
func (r *run) sample(res *result, stop <-chan struct{}) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for n := 0; ; n++ {
		metrics.Read(heap)
		res.heapPeak = max(res.heapPeak, heap[0].Value.Uint64()+heap[1].Value.Uint64())
		if r.tr != nil && r.st.fwd != nil {
			res.spoolMax = max(res.spoolMax, r.st.fwd.Depth())
		}
		if r.tr != nil && n%gaugeEvery == 0 {
			if p, err := scrape(r.st.domains[:1]); err == nil {
				res.queueMax = max(res.queueMax, int(p.sum("cmi_cedmos_queue_depth")))
			}
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// scrape snapshots the metric registries of the given domains, summing
// identical series. The fs counters are process-wide and read
// separately.
func scrape(ds []*domain) (promSnapshot, error) {
	all := make(promSnapshot)
	for _, d := range ds {
		var b strings.Builder
		if _, err := d.sys.Metrics().WriteTo(&b); err != nil {
			return nil, err
		}
		p, err := parseProm(b.String())
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			if !strings.HasPrefix(k, "cmi_fs_") {
				all[k] += v
			}
		}
	}
	return all, nil
}

// counters is everything read at the edges of the measured cycles, or
// the change between two such readings.
type counters struct {
	prom           promSnapshot
	fsSyncs        float64
	cpu            time.Duration
	gcs, allocated uint64
}

func readCounters(ds []*domain) (counters, error) {
	p, err := scrape(ds)
	if err != nil {
		return counters{}, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return counters{}, err
	}
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(gc)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{prom: p, fsSyncs: float64(fs.Syncs()), cpu: cpu, gcs: gc[0].Value.Uint64(), allocated: gc[1].Value.Uint64()}, nil
}

// since returns the change from an earlier reading o to c.
func (c counters) since(o counters) counters {
	return counters{prom: c.prom.minus(o.prom), fsSyncs: c.fsSyncs - o.fsSyncs, cpu: c.cpu - o.cpu, gcs: c.gcs - o.gcs, allocated: c.allocated - o.allocated}
}

// add accumulates the change d.
func (c *counters) add(d counters) {
	if c.prom == nil {
		c.prom = make(promSnapshot)
	}
	for k, v := range d.prom {
		c.prom[k] += v
	}
	c.fsSyncs += d.fsSyncs
	c.cpu += d.cpu
	c.gcs += d.gcs
	c.allocated += d.allocated
}

// result is the raw measurements of one round, or of all the rounds of
// a run.
type result struct {
	writes, reads, aware []float64
	refWrites, refReads  []float64
	actions              int           // requests completed in the measured cycles
	length               time.Duration // time the measured cycles took
	used                 counters      // counter changes over the measured cycles
	heapPeak             uint64
	spoolMax, queueMax   int
	rounds               int
	attempted, failed    int
	notes                []string
}

// add merges one round's result into a run's.
func (res *result) add(o *result) {
	res.writes = append(res.writes, o.writes...)
	res.reads = append(res.reads, o.reads...)
	res.aware = append(res.aware, o.aware...)
	res.refWrites = append(res.refWrites, o.refWrites...)
	res.refReads = append(res.refReads, o.refReads...)
	res.actions += o.actions
	res.length += o.length
	res.used.add(o.used)
	res.heapPeak = max(res.heapPeak, o.heapPeak)
	res.spoolMax = max(res.spoolMax, o.spoolMax)
	res.queueMax = max(res.queueMax, o.queueMax)
	res.rounds++
	res.attempted += o.attempted
	res.failed += o.failed
	res.notes = append(res.notes, o.notes...)
}

// measure drives the clients through the round's warm-up cycles and
// then its measured cycles, drains the outstanding notifications, and
// runs the oracle. Every client runs its share of the cycles, so a round
// makes the same actions, and builds the same state, however fast the
// program is.
func (r *run) measure() (*result, error) {
	res := &result{}
	r.or = newOracle()
	r.window = make(chan struct{}, window)
	r.stop = make(chan struct{})
	r.or.onMatch = func(e expectation, at time.Time) {
		if r.measured(e.sent) {
			r.aware = append(r.aware, ms(at.Sub(e.sent)))
		}
	}
	if r.tr != nil {
		r.attachTracer()
	}
	consumed := make(chan struct{})
	go r.consume(consumed)

	n := len(r.clients)
	warm, cycles := (r.wl.cycles/warmShare+n-1)/n, (r.wl.cycles+n-1)/n
	var warmed, done sync.WaitGroup
	started := make(chan struct{})
	for _, c := range r.clients {
		warmed.Add(1)
		done.Add(1)
		go func(c *client) {
			defer done.Done()
			for k := 0; k < warm && !r.stopped(); k++ {
				r.wl.step(r, c)
				c.refs(r)
			}
			warmed.Done()
			<-started
			for k := 0; k < cycles && !r.stopped(); k++ {
				r.wl.step(r, c)
				c.refs(r)
			}
		}(c)
	}
	warmed.Wait()
	before, err := readCounters(r.st.domains)
	begun := time.Now()
	r.begun.Store(&begun)
	close(started)
	sampled := make(chan struct{})
	stopSampling := make(chan struct{})
	go func() {
		defer close(sampled)
		r.sample(res, stopSampling)
	}()
	done.Wait()
	r.end = time.Now()
	close(stopSampling)
	<-sampled
	after, aerr := readCounters(r.st.domains)
	r.halt()
	if err = errors.Join(err, aerr); err != nil {
		return nil, err
	}
	res.used = after.since(before)
	res.length = r.end.Sub(begun)

	// Every expected frame must arrive; then the durable queues are
	// checked against what the clients did.
	deadline := time.Now().Add(drainTimeout)
	for r.or.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, d := range r.st.domains {
		d.sys.Quiesce()
	}
	r.or.finish()
	r.wl.check(r)
	r.st.sub.Close()
	<-consumed
	r.st.sub = nil

	r.or.mu.Lock()
	res.aware = r.aware
	r.or.mu.Unlock()
	res.failed, res.notes = r.or.result()
	res.attempted = r.or.expected
	for _, c := range r.clients {
		res.writes = append(res.writes, c.writes...)
		res.reads = append(res.reads, c.reads...)
		res.refWrites = append(res.refWrites, c.refWrites...)
		res.refReads = append(res.refReads, c.refReads...)
		res.actions += c.done
		res.attempted += c.attempted
		res.failed += c.failed
		res.notes = append(res.notes, c.errs...)
	}
	return res, nil
}

// newClients builds the action clients, each on its own connection,
// with the workload's families dealt round-robin so no two clients
// write the same process instance.
func newClients(st *stack, n int, seed int64, traced bool) []*client {
	cs := make([]*client, n)
	for i := range cs {
		tp := http.RoundTripper(&http.Transport{MaxIdleConnsPerHost: 1})
		c := &client{id: i, who: fmt.Sprintf("w%d", i+1), rng: rand.New(rand.NewSource(seed*1000 + int64(i))), last: make(map[string]int64)}
		if traced {
			c.seqTr = &seqTransport{next: tp}
			tp = c.seqTr
		}
		c.hc = &http.Client{Transport: tp, Timeout: 30 * time.Second}
		c.pc = federation.NewParticipantClient(st.domains[0].url, c.who, c.hc)
		c.ref = st.domains[0].url + refPath
		for j := i; j < len(st.families); j += n {
			c.fams = append(c.fams, st.families[j])
		}
		cs[i] = c
	}
	return cs
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch uint32(s.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(s.Type))
}

// kernel returns the running kernel's release string.
func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// rate is the requests completed per second of the measured cycles.
func (res *result) rate() float64 { return ratio(float64(res.actions), res.length.Seconds()) }

// cpuPerAction is the process CPU time (µs) per request completed in
// the measured cycles.
func (res *result) cpuPerAction() float64 {
	return ratio(float64(res.used.cpu)/float64(time.Microsecond), float64(res.actions))
}
