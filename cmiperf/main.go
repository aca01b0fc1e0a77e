// Command cmiperf is the CMI benchmark: it measures how fast one
// participant's action becomes awareness at another participant's SSE
// socket, on a real CMI stack (system + federation server on loopback
// listeners, fsynced journals, wall clock) driven by closed-loop
// participant clients. See README.md for the workloads and metrics.
//
//	cmiperf --workload handoff|watch --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result as one JSON object.
// With --trace 0 it carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run, and the spans are
// written as a Chrome trace-event file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupRepeats is the fewest stacks a run builds; setup_s is the
	// median of their set-up times.
	setupRepeats = 11
	// warmShare sets a round's warm-up: 1/warmShare of its measured
	// cycles run first, unmeasured, so connections and lazy state are
	// set up and the journals are past their first commit groups.
	warmShare = 20
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run1(); err != nil {
		fmt.Fprintln(os.Stderr, "cmiperf:", err)
		os.Exit(1)
	}
}

func run1() error {
	var (
		name    = flag.String("workload", "", "workload: handoff or watch")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 40, "measured time, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	wl := lookupWorkload(*name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	stateRoot := filepath.Join(root, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)

	nclients := max(1, runtime.NumCPU()-1)
	meta := map[string]any{
		"workload": wl.name, "why": wl.why, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "kernel": kernel(), "state_fs": fsType(stateRoot),
		"action_clients": nclients, "sse_subscriptions": 1, "window": window,
		"cycles_per_round": wl.cycles, "warmup_cycles_per_round": wl.cycles / warmShare, "setup_repeats": setupRepeats,
		"config": map[string]any{"SyncJournal": true, "Shards": runtime.GOMAXPROCS(0), "EnactStripes": "0 (GOMAXPROCS)", "Clock": "wall"},
	}
	printJSON("meta", meta)

	var out output
	if *trace == 0 {
		out, err = endToEnd(wl, stateRoot, *seed, time.Duration(*seconds)*time.Second, nclients)
	} else {
		out, err = perLayer(wl, root, stateRoot, *seed, time.Duration(*seconds)*time.Second, nclients, meta)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measureOnce measures rounds, each on a freshly built stack, until
// their measured cycles add up to length, then builds (and tears down)
// further stacks only to time their set-up until setups stacks were
// built. It returns the merged result and every set-up duration.
func measureOnce(wl *workload, stateRoot string, seed int64, length time.Duration, nclients, setups int, tr *tracer) (*result, []float64, error) {
	res := &result{}
	var times []float64
	for i := 0; res.length < length || len(times) < setups; i++ {
		st, d, err := setup(wl, filepath.Join(stateRoot, fmt.Sprintf("%s-%d", wl.name, i)), tr, nclients)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if res.length >= length {
			if err := st.close(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		r := &run{wl: wl, tr: tr, st: st, clients: newClients(st, nclients, seed*1000+int64(i), tr != nil)}
		round, err := r.measure()
		if cerr := st.close(); err == nil && cerr != nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			tr.round(*r.begun.Load(), r.end)
		}
		res.add(round)
	}
	return res, times, nil
}

func endToEnd(wl *workload, stateRoot string, seed int64, length time.Duration, nclients int) (output, error) {
	res, setups, err := measureOnce(wl, stateRoot, seed, length, nclients, setupRepeats, nil)
	if err != nil {
		return output{}, err
	}
	w, rd, aw := summarize(res.writes), summarize(res.reads), summarize(res.aware)
	refW, refR := median(res.refWrites), median(res.refReads)
	// Every time below is divided by the p50 of the reference requests
	// sent alongside the actions: the host's speed moves both alike, so it
	// cancels, and what is left moves with the program (README.md).
	m := map[string]metric{
		"setup_s":            {median(setups), "s"},
		"write_p50_rel":      {ratio(w.P50, refW), "ratio"},
		"read_p50_rel":       {ratio(rd.P50, refR), "ratio"},
		"aware_p50_rel":      {ratio(aw.P50, refW), "ratio"},
		"throughput_rel":     {res.rate() * refW / 1000, "ratio"},
		"cpu_per_action_rel": {ratio(res.cpuPerAction(), refW*1000), "ratio"},
		"heap_peak_mb":       {float64(res.heapPeak) / (1 << 20), "MB"},
	}
	failedRatio := ratio(float64(res.failed), float64(res.attempted))
	printTable("end-to-end", m)
	printTable("as measured, not normalized", map[string]metric{
		"write_p50_ms":      {w.P50, "ms"},
		"read_p50_ms":       {rd.P50, "ms"},
		"aware_p50_ms":      {aw.P50, "ms"},
		"actions_per_s":     {res.rate(), "1/s"},
		"cpu_us_per_action": {res.cpuPerAction(), "us"},
		"ref_write_p50_ms":  {refW, "ms"},
		"ref_read_p50_ms":   {refR, "ms"},
	})
	// The p99s are printed but left out of the result: on a shared host
	// they follow host I/O stalls more than the program (README.md).
	tails := map[string]dist{"write": w, "read": rd, "aware": aw}
	for _, name := range []string{"aware", "read", "write"} {
		d := tails[name]
		fmt.Printf("  %-36s %14.6f ms     (%d samples, %d beyond)\n", name+"_p99_ms", d.P99, d.N, d.P99Beyond)
	}
	fmt.Printf("  %-36s %14.6f ratio  (%d failed of %d attempted)\n", "failed_ratio", failedRatio, res.failed, res.attempted)
	fmt.Printf("  measured %d cycles in each of %d rounds, %.1f s in all\n", wl.cycles, res.rounds, res.length.Seconds())
	printJSON("samples", map[string]any{"write": w, "read": rd, "aware": aw, "setups_s": setups})
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "oracle:", n)
	}
	for name, d := range tails {
		if !d.tailReportable() {
			return output{}, fmt.Errorf("%s_p99_ms has %d samples beyond it (need %d; %d samples): lengthen --seconds", name, d.P99Beyond, minBeyond, d.N)
		}
	}
	return output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

// perLayer runs the workload twice, each time for half the measured
// time: untraced, then traced. The traced run gives the per-layer
// breakdown; the difference between the two is the tracing overhead.
func perLayer(wl *workload, root, stateRoot string, seed int64, length time.Duration, nclients int, meta map[string]any) (output, error) {
	half := length / 2
	plain, _, err := measureOnce(wl, stateRoot, seed, half, nclients, 1, nil)
	if err != nil {
		return output{}, err
	}
	tr := newTracer()
	res, _, err := measureOnce(wl, stateRoot, seed, half, nclients, 1, tr)
	if err != nil {
		return output{}, err
	}
	lt := tr.breakdown(wl.remote)
	m := layerMetrics(res, lt, wl.remote)
	awPlain, awTraced := summarize(plain.aware), summarize(res.aware)
	m["trace.overhead_aware_p50_ms"] = metric{awTraced.P50 - awPlain.P50, "ms"}
	m["trace.overhead_actions_per_s"] = metric{res.rate() - plain.rate(), "1/s"}
	printTable("per-layer", m)
	fmt.Printf("  traced notifications: %d sent in measured cycles, %d with every stage stamped, %d of those with stamps out of path order\n",
		lt.traced, lt.complete, lt.unordered)
	fmt.Printf("  tracing overhead: aware_p50_ms %.4f -> %.4f, cpu_us_per_action %.1f -> %.1f, actions_per_s %.1f -> %.1f\n",
		awPlain.P50, awTraced.P50, plain.cpuPerAction(), res.cpuPerAction(), plain.rate(), res.rate())
	if err := os.MkdirAll(filepath.Join(root, "trace"), 0o755); err != nil {
		return output{}, err
	}
	path := filepath.Join(root, "trace", fmt.Sprintf("%s-seed%d.json", wl.name, seed))
	if err := tr.writeChrome(path, wl.remote, meta); err != nil {
		return output{}, err
	}
	fmt.Printf("  chrome trace: %s\n", path)
	failed := plain.failed + res.failed
	for _, n := range append(plain.notes, res.notes...) {
		fmt.Fprintln(os.Stderr, "oracle:", n)
	}
	return output{Correct: failed == 0, Attempted: plain.attempted + res.attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics computes the per-layer metrics of a traced run. Metrics
// of a layer the workload does not use (the federation hop outside
// handoff) read 0.
func layerMetrics(res *result, lt layerTimes, remote bool) map[string]metric {
	d := res.used.prom
	actions := float64(res.actions)
	perAction := func(v float64) float64 { return ratio(v, actions) }
	injected := d.sum("cmi_cedmos_injected_total")
	detections := d.sum("cmi_awareness_detections_total")
	hits, misses := d.sum("cmi_wire_pool_hits_total"), d.sum("cmi_wire_pool_misses_total")
	m := map[string]metric{
		"federation.write_handler_ms":       {median(lt.writeHandler), "ms"},
		"federation.read_handler_ms":        {median(lt.readHandler), "ms"},
		"federation.loopback_ms":            {median(lt.loopback), "ms"},
		"federation.forward_ms":             {median(lt.forward), "ms"},
		"federation.remote_commit_ms":       {median(lt.remoteCommit), "ms"},
		"federation.spool_depth_max":        {float64(res.spoolMax), "count"},
		"federation.pushes_per_forward":     {0, "ratio"},
		"enact.emit_ms":                     {median(lt.emit), "ms"},
		"enact.wal_appends_per_action":      {perAction(d.sum("cmi_enact_wal_appends_total")), "ratio"},
		"enact.stripe_contended_ratio":      {ratio(d.sum("cmi_enact_stripe_contended_total"), d.sum("cmi_enact_stripe_ops_total")), "ratio"},
		"awareness.pipeline_ms":             {median(lt.pipeline), "ms"},
		"awareness.detect_us":               {d.histMean("cmi_cedmos_detect_seconds") * 1e6, "us"},
		"awareness.node_consumed_per_event": {ratio(d.sum("cmi_awareness_node_consumed_total"), injected), "ratio"},
		"awareness.detections_per_event":    {ratio(detections, injected), "ratio"},
		"awareness.events_per_action":       {perAction(injected), "ratio"},
		"awareness.queue_depth_max":         {float64(res.queueMax), "count"},
		"delivery.commit_ms":                {d.histMean("cmi_delivery_journal_append_seconds") * 1e3, "ms"},
		"delivery.batch_size_mean":          {d.histMean("cmi_delivery_commit_batch_size"), "count"},
		"delivery.commits_per_detection":    {ratio(d.sum("cmi_delivery_commits_total"), detections), "ratio"},
		"delivery.enqueued_per_action":      {perAction(d.sum("cmi_delivery_enqueued_total")), "ratio"},
		"fs.syncs_per_action":               {perAction(res.used.fsSyncs), "ratio"},
		"stream.frame_ms":                   {median(lt.frame), "ms"},
		"stream.frame_write_us":             {d.histMean("cmi_stream_frame_write_seconds") * 1e6, "us"},
		"stream.replay_fallbacks":           {d.sum("cmi_stream_dropped_to_replay_total"), "count"},
		"wire.pool_hit_ratio":               {ratio(hits, hits+misses), "ratio"},
		"runtime.gc_per_1k_actions":         {perAction(float64(res.used.gcs)) * 1000, "count"},
		"runtime.alloc_kb_per_action":       {perAction(float64(res.used.allocated)) / 1024, "KB"},
		"trace.client_to_handler_ms":        {median(lt.gap), "ms"},
		"trace.stamped_ratio":               {ratio(float64(lt.complete), float64(lt.traced)), "ratio"},
		"trace.unordered_ratio":             {ratio(float64(lt.unordered), float64(lt.complete)), "ratio"},
	}
	if remote {
		// The forwarding hook forwards every detection once.
		m["federation.pushes_per_forward"] = metric{ratio(d.sum("cmi_federation_pushes_total"), detections), "ratio"}
	}
	return m
}

// printTable prints metrics by name with their units, sorted.
func printTable(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, k := range names {
		fmt.Printf("  %-36s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printJSON prints one tagged JSON line of run metadata.
func printJSON(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", tag, strings.TrimSpace(string(b)))
}
