package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"vccmin/internal/engine"
)

// reqIDHeader carries a traced request's id from the benchmark's client
// to the benchmark's handler wrapper; the service never reads it.
const reqIDHeader = "X-Bench-Request-Id"

// client is one closed-loop caller: it sends its next request only
// after the previous answer arrived. Each client keeps its own samples
// so the loop shares no lock with the other clients.
type client struct {
	b      *bench
	traced bool // the current operation is traced

	bk        buckets    // the window's time buckets
	lat       []*latHist // every request sent in the window, by bucket of its answer
	credit    []float64  // checked answers by bucket, each spread over its duration
	attempted int
	failed    int
	tally     map[string]*engine.KindStats // X-Cache outcomes by task kind

	traces []tracedReq // traced window: what the decomposition replays

	// Workload-specific records, checked after the window.
	cold    []coldSample
	studies []*study
}

// newClient makes a client; bk is the window it records into (zero for
// set-up and check clients, which never record).
func newClient(b *bench, bk buckets) *client {
	c := &client{b: b, bk: bk, lat: make([]*latHist, bk.n+1), credit: make([]float64, bk.n+1),
		tally: make(map[string]*engine.KindStats)}
	for k := range c.lat {
		c.lat[k] = newLatHist()
	}
	return c
}

// answer is one HTTP exchange as the client saw it.
type answer struct {
	status int
	cache  string // X-Cache
	body   []byte
	start  time.Time
	end    time.Time
	span   uint64 // the client span's id in a traced window
	err    error
}

func (a answer) ms() float64 { return float64(a.end.Sub(a.start)) / 1e6 }

// send performs q and reads the whole body. In a traced window it also
// records the client span, whose id travels in reqIDHeader.
func (c *client) send(q Req) answer {
	var body io.Reader
	if q.Body != nil {
		body = bytes.NewReader(q.Body)
	}
	req, err := http.NewRequest(q.Method, c.b.srv.base+q.Path, body)
	if err != nil {
		return answer{err: err}
	}
	if q.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var a answer
	if c.traced {
		a.span = c.b.tr.newID()
		req.Header.Set(reqIDHeader, strconv.FormatUint(a.span, 10))
	}
	a.start = time.Now()
	resp, err := c.b.hc.Do(req)
	if err != nil {
		a.end, a.err = time.Now(), err
		return a
	}
	a.body, a.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	a.end = time.Now()
	a.status = resp.StatusCode
	a.cache = resp.Header.Get("X-Cache")
	if c.traced {
		c.b.tr.add(span{ID: a.span, Req: a.span, Name: "client.request", Attr: q.Kind, Start: a.start, End: a.end})
	}
	return a
}

// record counts one request of the window: its latency, its X-Cache
// outcome, and whether it passed every check (2xx and correct bytes).
func (c *client) record(q Req, a answer, ok bool) {
	c.attempted++
	bi := c.bk.index(a.end)
	c.lat[bi].add(a.ms())
	if ok && a.err == nil && a.status/100 == 2 {
		c.bk.spread(c.credit, a.start, a.end)
	} else {
		c.failed++
	}
	if q.Kind == "" || a.cache == "" {
		return
	}
	k := c.tally[q.Kind]
	if k == nil {
		k = &engine.KindStats{}
		c.tally[q.Kind] = k
	}
	switch engine.Source(a.cache) {
	case engine.SourceMemory:
		k.Hits++
	case engine.SourceDisk:
		k.DiskHits++
	case engine.SourceCompute:
		k.Misses++
	case engine.SourceInflight:
		k.InflightWaits++
	}
}

// sseStream is what a client saw on GET /v1/sweeps/{id}/stream.
type sseStream struct {
	answer
	rows     []byte    // row events' data, one line each — the /rows body
	nrows    int       // row events received
	firstRow time.Time // when the first row event arrived
	event    string    // terminal event: done or failed
	snapshot []byte    // the terminal event's job snapshot
}

// stream follows a job's SSE stream to its terminal event.
func (c *client) stream(id string) sseStream {
	var s sseStream
	req, err := http.NewRequest("GET", c.b.srv.base+"/v1/sweeps/"+id+"/stream", nil)
	if err != nil {
		s.err = err
		return s
	}
	if c.traced {
		s.span = c.b.tr.newID()
		req.Header.Set(reqIDHeader, strconv.FormatUint(s.span, 10))
	}
	s.start = time.Now()
	resp, err := c.b.hc.Do(req)
	if err != nil {
		s.end, s.err = time.Now(), err
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	var event, data string
	for s.event == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			s.err = fmt.Errorf("stream ended before a terminal event: %w", err)
			break
		}
		line = line[:len(line)-1]
		switch {
		case line == "":
			switch event {
			case "":
				if data != "" {
					if s.nrows == 0 {
						s.firstRow = time.Now()
					}
					s.rows = append(append(s.rows, data...), '\n')
					s.nrows++
				}
			default:
				s.event, s.snapshot = event, []byte(data)
			}
			event, data = "", ""
		case line[0] == ':': // keep-alive comment
		case len(line) > 6 && line[:6] == "event:":
			event = trimField(line[6:])
		case len(line) > 5 && line[:5] == "data:":
			data = trimField(line[5:])
		}
	}
	s.end = time.Now()
	if c.traced {
		c.b.tr.add(span{ID: s.span, Req: s.span, Name: "client.request", Attr: "sweep-stream", Start: s.start, End: s.end})
	}
	return s
}

func trimField(v string) string {
	if len(v) > 0 && v[0] == ' ' {
		return v[1:]
	}
	return v
}

// runtimeCounters are the process-wide runtime/metrics the window
// reports; the service runs in this process, so they cover it.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapSampler tracks the peak Go HeapInuse (heap objects plus unused
// bytes of in-use spans) per bucket while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan []uint64
}

func startHeapSampler(bk buckets) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []uint64, 1)}
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		peak := make([]uint64, bk.n+1)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			k := bk.index(time.Now())
			peak[k] = max(peak[k], s[0].Value.Uint64()+s[1].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stopc:
				h.done <- peak[:bk.n]
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak of each bucket in bytes.
func (h *heapSampler) stop() []uint64 {
	close(h.stopc)
	return <-h.done
}

// buckets splits a window into n equal stretches of time. Throughput,
// median latency and the heap peak are reported as medians over the
// buckets, so a burst of interference from outside the process that
// hits fewer than half of them does not move the number. Index n
// collects what ends after the window (the operations in flight at the
// deadline).
type buckets struct {
	start time.Time
	width time.Duration
	n     int
}

func newBuckets(start time.Time, d time.Duration) buckets {
	n := max(1, int(d.Round(time.Second)/time.Second))
	return buckets{start: start, width: d / time.Duration(n), n: n}
}

// index is the bucket holding t.
func (bk buckets) index(t time.Time) int {
	if bk.n == 0 {
		return 0
	}
	return min(max(0, int(t.Sub(bk.start)/bk.width)), bk.n)
}

// spread adds one unit of credit spread evenly over [s, e] across the
// buckets the interval covers, so a long request (a sweep stream)
// counts where it ran instead of all at its end.
func (bk buckets) spread(credit []float64, s, e time.Time) {
	d := e.Sub(s)
	if d <= 0 || bk.n == 0 {
		credit[bk.index(e)]++
		return
	}
	for k := bk.index(s); k <= bk.index(e); k++ {
		lo, hi := bk.start.Add(time.Duration(k)*bk.width), bk.start.Add(time.Duration(k+1)*bk.width)
		if k == bk.n || hi.After(e) {
			hi = e
		}
		if lo.Before(s) {
			lo = s
		}
		credit[k] += float64(hi.Sub(lo)) / float64(d)
	}
}

// window is one measured (or traced) stretch of closed-loop traffic.
type window struct {
	clients  []*client
	wall     time.Duration
	delta    map[string]engine.KindStats // /v1/stats engine deltas
	bk       buckets
	heapPeak []uint64        // by bucket
	runtime  runtimeCounters // deltas
}

// runWindow drives b.clients closed-loop clients for d: each starts a
// new operation while the deadline has not passed and finishes the one
// in flight, so the wall time runs to the last answer.
func (b *bench) runWindow(d time.Duration, traced bool) (*window, error) {
	// Start from a collected heap, so set-up garbage does not set the
	// window's heap peaks.
	runtime.GC()
	st0, err := b.srv.stats(b.hc)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	start := time.Now()
	w := &window{bk: newBuckets(start, d)}
	heap := startHeapSampler(w.bk)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < b.clients; k++ {
		c := newClient(b, w.bk)
		w.clients = append(w.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := b.next.Add(1) - 1
				c.traced = traced && i%b.traceEvery == 0
				b.load.op(c, i)
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.heapPeak = heap.stop()
	rt1 := readRuntime()
	w.runtime = runtimeCounters{allocBytes: rt1.allocBytes - rt0.allocBytes, gcCycles: rt1.gcCycles - rt0.gcCycles}
	st1, err := b.srv.stats(b.hc)
	if err != nil {
		return nil, err
	}
	w.delta = engineDelta(st0.Engine, st1.Engine)
	return w, nil
}

// totals sums the clients' request counts.
func (w *window) totals() (attempted, failed int) {
	for _, c := range w.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// latencies merges the clients' per-request latencies.
func (w *window) latencies() *latHist {
	out := newLatHist()
	for _, c := range w.clients {
		for _, h := range c.lat {
			out.merge(h)
		}
	}
	return out
}

// perBucket returns, for each bucket of the window, f of the clients'
// merged latencies and summed credit in it.
func (w *window) perBucket(f func(lat *latHist, credit float64) (float64, bool)) []float64 {
	var out []float64
	for k := 0; k < w.bk.n; k++ {
		lat := newLatHist()
		var credit float64
		for _, c := range w.clients {
			lat.merge(c.lat[k])
			credit += c.credit[k]
		}
		if v, ok := f(lat, credit); ok {
			out = append(out, v)
		}
	}
	return out
}

// tally merges the clients' X-Cache outcomes by kind.
func (w *window) tally() map[string]engine.KindStats {
	out := make(map[string]engine.KindStats)
	for _, c := range w.clients {
		for kind, k := range c.tally {
			t := out[kind]
			t.Hits += k.Hits
			t.DiskHits += k.DiskHits
			t.Misses += k.Misses
			t.InflightWaits += k.InflightWaits
			out[kind] = t
		}
	}
	return out
}

// accounting compares the service's per-kind engine counters over the
// window with the client's X-Cache tallies; they must agree exactly.
func (w *window) accounting() []string {
	var bad []string
	tally := w.tally()
	for kind, d := range w.delta {
		t := tally[kind]
		if d.Errors != 0 || d.DiskErrors != 0 {
			bad = append(bad, fmt.Sprintf("%s: engine errors %d, disk write errors %d", kind, d.Errors, d.DiskErrors))
		}
		d.Errors, d.DiskErrors = 0, 0
		if d != t {
			bad = append(bad, fmt.Sprintf("%s: /v1/stats delta %+v != client X-Cache tally %+v", kind, d, t))
		}
	}
	for kind, t := range tally {
		if _, ok := w.delta[kind]; !ok {
			bad = append(bad, fmt.Sprintf("%s: client X-Cache tally %+v but no /v1/stats delta", kind, t))
		}
	}
	return bad
}
