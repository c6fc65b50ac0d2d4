// Command e2ebench is the end-to-end benchmark of vccmin-serve. It
// hosts service.Server in-process on loopback (default service.Config,
// fresh data directory), drives one named workload with closed-loop
// clients, checks every answer, and prints every end-to-end metric by
// name with its unit and sample count. A traced run (--trace 1) records
// spans around the calls into each layer and prints the per-layer
// metrics instead. See README.md beside this file for the workloads,
// the metrics and the layer → end-to-end map.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// load is one workload: how it prepares a fresh server, what one
// closed-loop operation does, and how its answers are checked and
// decomposed into layers.
type load interface {
	// setup prepares a fresh server: precomputed state and warm-up.
	setup(b *bench) error
	// op runs the i-th operation of the measured stream on client c.
	op(c *client, i uint64)
	// check verifies the window's recorded answers after it ended,
	// counting failures on the clients, and reports failed claims.
	check(b *bench, w *window, r *report)
	// report adds the workload's own end-to-end metrics.
	report(w *window, r *report)
	// decompose replays a sample of the traced window's requests
	// through the layer functions.
	decompose(w *window, d *decomposer) error
	// digest identifies the request stream for this seed.
	digest(seed int64) string
}

// workloadDef is a workload's entry in the table below.
type workloadDef struct {
	newLoad func() load

	// clients is the closed-loop client count; 0 means nproc.
	clients int

	// traceEvery samples the traced window: operation i is traced when
	// i is a multiple.
	traceEvery uint64
}

// workloads are the workloads by name. Replay answers in tens of
// microseconds, so it traces one operation in eight, which keeps its
// span set small without starving any per-layer median.
//
// Cold and sweep-study run one client. Their work already fans out over
// every core (fleet, capacity and DVFS tasks, sweep cells). A second
// client would make two such fan-outs contend, so a request's latency
// would depend on what the other client happened to run; a second
// sweep-study client also locks into a random phase against the first
// for the whole run.
var workloads = map[string]workloadDef{
	"replay":      {newLoad: func() load { return &replay{} }, traceEvery: 8},
	"cold":        {newLoad: func() load { return &cold{} }, clients: 1, traceEvery: 1},
	"sweep-study": {newLoad: func() load { return &sweepStudy{} }, clients: 1, traceEvery: 1},
}

// bench is one run's shared state.
type bench struct {
	seed    int64
	clients int
	root    string // scratch directory for this run's data directories
	srv     *server
	hc      *http.Client
	tr      *tracer // nil in untraced runs
	load    load
	next    atomic.Uint64 // index of the next measured operation

	traceEvery uint64 // trace operation i when i%traceEvery == 0
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: replay, cold or sweep-study")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for data directories and the span file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	def, ok := workloads[*name]
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q (want replay, cold or sweep-study)", *name)
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("--trace must be 0 or 1")
	case *seconds <= 0:
		return 2, fmt.Errorf("--seconds must be positive")
	}
	clients := def.clients
	if clients == 0 {
		clients = runtime.NumCPU()
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 1, err
	}
	// The run never deletes the data directories it creates.
	// On a virtual disk with online discard, deleting thousands of
	// result files makes the host punch holes for tens of seconds,
	// stealing CPU from whatever is timed next (set-up, the window, or
	// the next run). They stay under the work directory instead, about
	// 25 MB for a replay run.
	root, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return 1, err
	}

	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	b := &bench{
		seed: *seed, clients: clients, root: root, traceEvery: def.traceEvery,
		hc: &http.Client{Transport: transport, Timeout: 120 * time.Second},
	}
	h := hostInfo()
	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%g trace=%d clients=%d (closed loop)\n",
		*name, *seed, *seconds, *trace, clients)
	fmt.Fprintf(stdout, "# host fingerprint=%s cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s\n",
		h.fingerprint(), h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OS)
	fmt.Fprintln(stdout, "# numbers from hosts with different fingerprints are not comparable")

	d := time.Duration(*seconds * float64(time.Second))
	var res resultLine
	if *trace == 1 {
		res, err = b.traced(def.newLoad, d, filepath.Join(*workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)), stdout)
	} else {
		res, err = b.untraced(def.newLoad, d, stdout)
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0, nil
}

// start brings up a fresh server and runs the workload's set-up on it,
// returning the time from the start to the end of the warm-up.
func (b *bench) start(newLoad func() load, wrap func(http.Handler) http.Handler) (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(b.root, wrap)
	if err != nil {
		return 0, err
	}
	b.srv, b.load = srv, newLoad()
	if err := b.load.setup(b); err != nil {
		srv.stop()
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(t0), nil
}

// setups is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up (the process's first, or a burst of host
// interference) does not move it.
const setups = 3

// settle flushes dirty pages before a timed stretch, so the kernel's
// periodic writeback of earlier writes (a set-up's result files) does
// not land in it.
func settle() { syscall.Sync() }

// untraced is the measured run: set up several times, then one measured
// window on the last server.
func (b *bench) untraced(newLoad func() load, d time.Duration, stdout io.Writer) (resultLine, error) {
	var setupS []float64
	for k := 0; k < setups; k++ {
		if k > 0 {
			if err := b.srv.stop(); err != nil {
				return resultLine{}, err
			}
		}
		settle()
		dur, err := b.start(newLoad, nil)
		if err != nil {
			return resultLine{}, err
		}
		setupS = append(setupS, dur.Seconds())
	}
	settle()
	fmt.Fprintf(stdout, "# stream digest=%s\n", b.load.digest(b.seed))
	w, err := b.runWindow(d, false)
	if err != nil {
		b.srv.stop()
		return resultLine{}, err
	}
	var r report
	b.checkWindow(w, &r)
	if err := b.srv.stop(); err != nil {
		return resultLine{}, err
	}

	r.addE2E(metric{name: "setup_s", value: median(setupS), unit: "s", n: len(setupS),
		note: "median set-up: server start, precomputed state, warm-up"})
	windowMetrics(w, &r)
	b.load.report(w, &r)
	attempted, failed := w.totals()
	r.addE2E(metric{name: "failed_frac", value: float64(failed) / float64(max(attempted, 1)), unit: "ratio", n: attempted})
	printMetrics(stdout, "e2e", r.e2e)
	engineFracs(w, &r)
	printMetrics(stdout, "engine", r.layer)
	b.printProblems(stdout, r)
	return result(r.e2e, jsonEndToEnd, attempted, failed, len(r.problems) == 0 && failed == 0)
}

// traced is the per-layer run: one untraced window and one traced
// window on the same server, then the decomposition of a sample of the
// traced requests, and the span file.
func (b *bench) traced(newLoad func() load, d time.Duration, spanPath string, stdout io.Writer) (resultLine, error) {
	b.tr = newTracer()
	settle()
	if _, err := b.start(newLoad, b.tr.wrap); err != nil {
		return resultLine{}, err
	}
	settle()
	fmt.Fprintf(stdout, "# stream digest=%s\n", b.load.digest(b.seed))
	base, err := b.runWindow(d, false)
	if err != nil {
		b.srv.stop()
		return resultLine{}, err
	}
	w, err := b.runWindow(d, true)
	if err != nil {
		b.srv.stop()
		return resultLine{}, err
	}
	var r report
	b.checkWindow(base, &r)
	b.checkWindow(w, &r)
	if err := b.srv.stop(); err != nil {
		return resultLine{}, err
	}

	dec, err := newDecomposer(b.tr, b.root)
	if err != nil {
		return resultLine{}, err
	}
	if err := b.load.decompose(w, dec); err != nil {
		r.fail("decomposition: %v", err)
	}
	if err := b.tr.write(spanPath); err != nil {
		return resultLine{}, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(stdout, "# spans: %s (JSON lines; self_ns = span minus its children)\n", spanPath)
	fmt.Fprintln(stdout, "# layer times are unloaded: the decomposition replays traced inputs one call at a time")

	b.layerMetrics(base, w, dec.out, &r)
	// Tracing overhead: the traced window's end-to-end numbers over the
	// untraced window's, in this process.
	var ru, rt report
	windowMetrics(base, &ru)
	b.load.report(base, &ru)
	windowMetrics(w, &rt)
	b.load.report(w, &rt)
	for k, m := range ru.e2e {
		if name, ok := map[string]string{"throughput_rps": "trace.throughput_ratio", "sim_minstr_per_s": "trace.sim_minstr_ratio"}[m.name]; ok {
			r.addLayer(metric{name: name, value: rt.e2e[k].value / m.value, unit: "ratio", n: 2,
				note: fmt.Sprintf("traced %.6g / untraced %.6g %s: tracing overhead", rt.e2e[k].value, m.value, m.unit)})
		}
	}
	printMetrics(stdout, "layer", r.layer)
	b.printProblems(stdout, r)
	a0, f0 := base.totals()
	a1, f1 := w.totals()
	return result(r.layer, jsonPerLayer, a0+a1, f0+f1, len(r.problems) == 0 && f0+f1 == 0)
}

// checkWindow runs the workload's checks and the engine accounting
// cross-check over one window.
func (b *bench) checkWindow(w *window, r *report) {
	b.load.check(b, w, r)
	for _, p := range w.accounting() {
		r.fail("engine accounting: %s", p)
	}
}

func (b *bench) printProblems(stdout io.Writer, r report) {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "# note:", n)
	}
	if len(r.problems) == 0 {
		fmt.Fprintln(stdout, "# checks: every answer checked; engine accounting matches the client tallies exactly")
		return
	}
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "# CHECK FAILED:", p)
	}
}

// throughput is checked 2xx answers per second: the median over the
// window's buckets.
func throughput(w *window) float64 {
	secs := w.bk.width.Seconds()
	return median(w.perBucket(func(_ *latHist, credit float64) (float64, bool) { return credit / secs, true }))
}

// windowMetrics adds the metrics every workload reports from a window.
// Throughput, p50, p99 and the heap peak are medians over the window's
// one-second buckets: a burst of CPU steal from a neighbour on a shared
// host stretches the slowest requests most, and moved the whole-window
// p99 of cold by up to 80% in three of ten runs, while a median over
// buckets ignores a burst that covers fewer than half of them. The
// whole-window p99, with at least ten samples beyond it on every
// workload, is printed beside it.
func windowMetrics(w *window, r *report) {
	attempted, _ := w.totals()
	bucketQuantile := func(q float64) []float64 {
		return w.perBucket(func(lat *latHist, _ float64) (float64, bool) {
			v, _ := lat.quantile(q)
			return v, lat.n > 0
		})
	}
	p50s, p99s := bucketQuantile(0.5), bucketQuantile(0.99)
	r.addE2E(metric{name: "throughput_rps", value: throughput(w), unit: "req/s", n: attempted,
		note: fmt.Sprintf("checked 2xx answers per second, median of %d buckets", w.bk.n)})
	r.addE2E(metric{name: "latency_p50_ms", value: median(p50s), unit: "ms", n: attempted, pctl: true,
		beyond: attempted / 2, note: fmt.Sprintf("per-request client latency, median of %d bucket medians", len(p50s))})
	r.addE2E(metric{name: "latency_p99_ms", value: median(p99s), unit: "ms", n: attempted, pctl: true,
		beyond: attempted / 100, note: fmt.Sprintf("per-request client latency, median of %d bucket p99s", len(p99s))})
	v, beyond := w.latencies().quantile(0.99)
	pooled := metric{name: "latency_p99_window_ms", value: v, unit: "ms", n: attempted, pctl: true, beyond: beyond,
		note: "per-request client latency, p99 of the whole window"}
	if pooled.beyond < 10 {
		pooled.note += "; fewer than 10 samples beyond p99"
	}
	r.addE2E(pooled)
	peaks := make([]float64, len(w.heapPeak))
	for k, p := range w.heapPeak {
		peaks[k] = float64(p) / (1 << 20)
	}
	r.addE2E(metric{name: "heap_peak_mb", value: median(peaks), unit: "MB", n: len(peaks),
		note: "peak Go HeapInuse of the whole process (service and benchmark), median of bucket peaks"})
}

// engineFracs adds the X-Cache split of the window's engine-backed
// answers, with counts.
func engineFracs(w *window, r *report) {
	var hit, disk, miss, total uint64
	for _, k := range w.tally() {
		hit += k.Hits
		disk += k.DiskHits
		miss += k.Misses
		total += k.Hits + k.DiskHits + k.Misses + k.InflightWaits
	}
	frac := func(name string, n uint64) {
		r.addLayer(metric{name: name, value: float64(n) / float64(max(total, 1)), unit: "ratio", n: int(total),
			note: fmt.Sprintf("%d of %d engine answers", n, total)})
	}
	frac("engine.mem_hit_frac", hit)
	frac("engine.disk_hit_frac", disk)
	frac("engine.miss_frac", miss)
}

// layerMetrics derives the per-layer metrics: engine split and runtime
// costs from the untraced window, handler and transport times from the
// traced window's spans, layer times from the decomposition.
func (b *bench) layerMetrics(base, w *window, dec samples, r *report) {
	handler := samples{}
	client := make(map[uint64]span)
	b.tr.mu.Lock()
	for _, s := range b.tr.spans {
		if s.Name == "client.request" {
			client[s.ID] = s
		}
	}
	for _, s := range b.tr.spans {
		if s.Name != "service.handler" {
			continue
		}
		handler.add("service.handler_p50_us", us(s.dur()))
		if s.Attr != "" {
			handler.add("service.handler_p50_us."+s.Attr, us(s.dur()))
		}
		if c, ok := client[s.Req]; ok {
			handler.add("service.transport_p50_us", us(c.dur()-s.dur()))
		}
	}
	b.tr.mu.Unlock()
	for _, name := range []string{"service.handler_p50_us", "service.handler_p50_us.hit",
		"service.handler_p50_us.disk", "service.handler_p50_us.miss", "service.transport_p50_us"} {
		r.addLayer(layerMedian(handler, name, "us"))
	}
	for _, m := range jobMetrics(w) {
		r.addLayer(m)
	}

	var kinds []string
	for name := range dec {
		if strings.HasPrefix(name, "tasks.build_us.") {
			kinds = append(kinds, name)
		}
	}
	sort.Strings(kinds)
	for _, name := range append([]string{"tasks.build_us"}, kinds...) {
		r.addLayer(layerMedian(dec, name, "us"))
	}
	engineFracs(base, r)
	for _, name := range []string{"engine.do_us.hit", "engine.do_us.disk", "engine.do_us.miss", "engine.miss_overhead_us"} {
		r.addLayer(layerMedian(dec, name, "us"))
	}
	for _, l := range []struct{ name, unit string }{
		{"sim.run_ms", "ms"}, {"sim.minstr_per_s", "Minstr/s"}, {"prob.capacity_ms", "ms"},
		{"power.operating_point_ms", "ms"}, {"experiments.capacity_ms", "ms"},
		{"population.fleet_ms", "ms"}, {"population.predict_ms", "ms"}, {"dvfs.explore_ms", "ms"},
		{"sweep.cell_ms", "ms"}, {"sweep.run_ms", "ms"}, {"colstore.fold_ms", "ms"},
		{"colstore.query_us", "us"}, {"colstore.query_rows_ms", "ms"}, {"colstore.rows", "rows"},
	} {
		r.addLayer(layerMedian(dec, l.name, l.unit))
	}

	attempted, _ := base.totals()
	ops := float64(max(attempted, 1))
	r.addLayer(metric{name: "runtime.alloc_kb_per_op", value: float64(base.runtime.allocBytes) / 1024 / ops,
		unit: "KiB", n: attempted, note: "heap bytes allocated per request, whole process, untraced window"})
	r.addLayer(metric{name: "runtime.gc_per_kop", value: float64(base.runtime.gcCycles) * 1000 / ops,
		unit: "count", n: attempted, note: fmt.Sprintf("%d GC cycles over %d requests, untraced window", base.runtime.gcCycles, attempted)})
}

// parallel runs f for i in [0, n) on b.clients set-up clients and
// returns the first error.
func (b *bench) parallel(n int, f func(c *client, i int) error) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for k := 0; k < b.clients; k++ {
		c := newClient(b, buckets{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := f(c, i); err != nil {
					mu.Lock()
					first = errors.Join(first, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// checkDirect compares a service answer, kept as its digest, with the
// JSON bytes of running the same request's task directly.
func checkDirect(q Req, answer [32]byte) error {
	t, err := q.Task()
	if err != nil {
		return err
	}
	v, err := t.Run(context.Background())
	if err != nil {
		return err
	}
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if answerSum(want) != answer {
		return fmt.Errorf("%s %s: answer differs from a direct run", q.Method, q.Path)
	}
	return nil
}

// answerSum is the digest of the HTTP body that carries the JSON bytes
// b: the service ends every answer with a newline. The benchmark keeps
// answers as digests, so its own records do not grow the heap it
// measures.
func answerSum(b []byte) [32]byte {
	var out [32]byte
	h := sha256.New()
	h.Write(b)
	h.Write([]byte{'\n'})
	h.Sum(out[:0])
	return out
}

// expect describes an unexpected answer, or returns nil.
func expect(a answer, status int, cache string) error {
	switch {
	case a.err != nil:
		return a.err
	case a.status != status:
		return fmt.Errorf("status %d, want %d: %.200s", a.status, status, a.body)
	case cache != "" && a.cache != cache:
		return fmt.Errorf("X-Cache %q, want %q", a.cache, cache)
	case len(a.body) == 0:
		return fmt.Errorf("empty body")
	}
	return nil
}
