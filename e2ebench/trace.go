package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// span is one timed interval. Spans of one request share Req, the id of
// the client span that sent it; a layer span's Parent is the span whose
// work it decomposes.
type span struct {
	ID     uint64
	Parent uint64
	Req    uint64
	Name   string
	Attr   string // kind, cache source or layer detail
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a new span and returns the span.
func (t *tracer) timed(parent, req uint64, name, attr string, f func()) span {
	s := span{ID: t.newID(), Parent: parent, Req: req, Name: name, Attr: attr, Start: time.Now()}
	f()
	s.End = time.Now()
	t.add(s)
	return s
}

// wrap records a service.handler span around every request that
// carries the benchmark's request id; its attribute is the answer's
// X-Cache. Requests without the header (set-up, untraced windows) pass
// straight through.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Parent: id, Req: id, Name: "service.handler", Start: time.Now()}
		next.ServeHTTP(w, r)
		s.End = time.Now()
		s.Attr = w.Header().Get("X-Cache")
		t.add(s)
	})
}

// spanRecord is one line of the span file. Times are nanoseconds since
// the tracer started; self_ns is the span minus the part of its
// interval its child spans cover.
type spanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	Attr    string `json:"attr,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// selfTimes maps span id → self time.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// write stores every span as JSON lines at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	self := selfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(spanRecord{
			ID: s.ID, Parent: s.Parent, Req: s.Req, Name: s.Name, Attr: s.Attr,
			StartNS: s.Start.Sub(t.epoch).Nanoseconds(), EndNS: s.End.Sub(t.epoch).Nanoseconds(),
			SelfNS: self[s.ID].Nanoseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedReq is one request of the traced window the decomposition may
// replay: its inputs, the span that sent it and the digest of the body
// it received.
type tracedReq struct {
	q    Req
	span uint64
	sum  [32]byte
}

// samples collects per-layer observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// decomposer replays traced requests serially through the public layer
// functions, each call in a span whose parent is the request it
// decomposes. These are unloaded layer times: one call at a time, on
// an otherwise idle process.
type decomposer struct {
	tr   *tracer
	eng  *engine.Engine // benchmark-owned: first Do misses, second hits
	eng2 *engine.Engine // same store directory, empty memory: Do reads disk
	dir  string
	out  samples
}

func newDecomposer(tr *tracer, root string) (*decomposer, error) {
	dir, err := os.MkdirTemp(root, "decompose-")
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Options{Dir: filepath.Join(dir, "results")})
	if err != nil {
		return nil, err
	}
	eng2, err := engine.New(engine.Options{Dir: filepath.Join(dir, "results")})
	if err != nil {
		return nil, err
	}
	return &decomposer{tr: tr, eng: eng, eng2: eng2, dir: dir, out: samples{}}, nil
}

// build constructs q's task and its canonical hash, as a handler does,
// in a tasks.build span.
func (d *decomposer) build(parent uint64, q Req) (engine.Task, time.Duration, error) {
	var t engine.Task
	var err error
	s := d.tr.timed(parent, parent, "tasks.build", q.Kind, func() {
		if t, err = q.Task(); err == nil {
			t.CanonicalHash()
		}
	})
	return t, s.dur(), err
}

// task decomposes one engine-backed request: the task was built (in
// build) by the caller; run it, then take it through a benchmark-owned
// engine's three tiers. Every tier must return the bytes of the
// service's answer, whose digest is want.
func (d *decomposer) task(parent uint64, t engine.Task, build time.Duration, want [32]byte) error {
	kind := t.Kind()
	layer := layerOf(t)
	d.out.add("tasks.build_us."+kind, us(build))
	d.out.add("tasks.build_us", us(build))

	var runErr error
	run := d.tr.timed(parent, parent, layer, kind, func() { _, runErr = t.Run(context.Background()) })
	if runErr != nil {
		return fmt.Errorf("%s: run: %w", kind, runErr)
	}
	d.out.add(layer+"_ms", ms(run.dur()))
	if s, ok := t.(tasks.SimTask); ok {
		d.out.add("sim.minstr_per_s", float64(s.Req.Instructions)/1e6/run.dur().Seconds())
	}

	for _, tier := range []struct {
		e      *engine.Engine
		source engine.Source
	}{{d.eng, engine.SourceCompute}, {d.eng, engine.SourceMemory}, {d.eng2, engine.SourceDisk}} {
		var res engine.Result
		var err error
		s := d.tr.timed(parent, parent, "engine.do", string(tier.source), func() {
			res, err = tier.e.Do(context.Background(), t)
		})
		switch {
		case err != nil:
			return fmt.Errorf("%s: engine.Do: %w", kind, err)
		case res.Source != tier.source:
			return fmt.Errorf("%s: engine.Do answered from %q, want %q", kind, res.Source, tier.source)
		case answerSum(res.Bytes) != want:
			return fmt.Errorf("%s: engine.Do %s bytes differ from the service's answer", kind, tier.source)
		}
		d.out.add("engine.do_us."+string(tier.source), us(s.dur()))
		if tier.source == engine.SourceCompute {
			d.out.add("engine.miss_overhead_us", us(s.dur()-run.dur()))
		}
	}
	return nil
}

// layerOf names the layer a task's Run lands in, after the package that
// does the work.
func layerOf(t engine.Task) string {
	switch tt := t.(type) {
	case tasks.SimTask:
		return "sim.run"
	case tasks.CapacityTask:
		if tt.Req.Trials == 0 {
			return "prob.capacity"
		}
		return "experiments.capacity"
	case tasks.OperatingPointTask:
		return "power.operating_point"
	case tasks.FleetTask:
		return "population.fleet"
	case tasks.PredictTask:
		return "population.predict"
	case tasks.DVFSExploreTask:
		return "dvfs.explore"
	case tasks.QueryTask:
		return "colstore.query_rows"
	}
	return t.Kind() + ".run"
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
