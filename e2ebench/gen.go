package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
	"vccmin/internal/workload"
)

// Req is one generated request: the HTTP form the service sees and the
// typed task request its handler builds from it. The benchmark builds
// the task itself to check answers and to time the layers; the service
// only ever sees Method, Path and Body.
type Req struct {
	Kind   string // engine task kind; empty for routes that bypass the engine
	Method string
	Path   string // with query string
	Body   []byte // nil for GET
	build  func() (engine.Task, error)
}

// Task builds the engine task the service's handler builds for r.
func (r Req) Task() (engine.Task, error) { return r.build() }

// Key is the engine identity of r's task: kind/canonical-hash.
func (r Req) Key() (string, error) {
	t, err := r.build()
	if err != nil {
		return "", err
	}
	return t.Kind() + "/" + t.CanonicalHash(), nil
}

// Stream labels keep the request streams of one seed disjoint: the
// label is part of every RNG stream and of every unique seed parameter,
// so warm-up traffic can never pre-compute a measured request.
const (
	labelMeasure uint64 = iota
	labelWarmup
)

// rng returns the deterministic stream for (seed, label, index).
func rng(seed int64, label string, i uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()^(i*0x9e3779b97f4a7c15)))
}

// uniqSeed is a positive seed parameter unique per (label, index) within
// one workload seed: label in bits 55-56, a per-seed prefix in bits
// 32-54, index+1 below. Two requests that differ in it differ in their
// canonical hash, so a stream built on it never repeats a result.
func uniqSeed(seed int64, label, i uint64) int64 {
	prefix := rng(seed, "uniq", 0).Uint64() & (1<<23 - 1)
	return int64(label<<55 | prefix<<32 | (i + 1))
}

// logUniform draws from [lo, hi) uniformly in log space.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func getReq(kind, path string, q url.Values, build func() (engine.Task, error)) Req {
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return Req{Kind: kind, Method: "GET", Path: path, build: build}
}

func postReq(kind, path string, body any, build func() (engine.Task, error)) Req {
	b, err := json.Marshal(body)
	if err != nil {
		// Request structs are plain data; failing to marshal one is a bug.
		panic(fmt.Sprintf("marshal %s body: %v", kind, err))
	}
	return Req{Kind: kind, Method: "POST", Path: path, Body: b, build: build}
}

// asTask adapts a typed task constructor's result.
func asTask[T engine.Task](t T, err error) (engine.Task, error) { return t, err }

func capacityReq(pfail float64, gran string, trials int, seed int64) Req {
	q := url.Values{"pfail": {fmtFloat(pfail)}}
	if gran != "" {
		q.Set("gran", gran)
	}
	if trials > 0 {
		q.Set("trials", strconv.Itoa(trials))
	}
	if seed != 1 {
		q.Set("seed", strconv.FormatInt(seed, 10))
	}
	req := tasks.CapacityRequest{Pfail: &pfail, Granularity: gran, Trials: trials, Seed: seed}
	return getReq(tasks.KindCapacity, "/v1/capacity", q, func() (engine.Task, error) {
		return asTask(tasks.NewCapacityTask(req))
	})
}

func operatingPointReq(pfail float64) Req {
	req := tasks.OperatingPointRequest{Pfail: &pfail}
	return getReq(tasks.KindOperatingPoint, "/v1/operating-point", url.Values{"pfail": {fmtFloat(pfail)}},
		func() (engine.Task, error) { return asTask(tasks.NewOperatingPointTask(req)) })
}

func simReq(req tasks.SimRequest) Req {
	return postReq(tasks.KindSim, "/v1/sim", req, func() (engine.Task, error) {
		return asTask(tasks.NewSimTask(req))
	})
}

func fleetReq(dies int, seed int64) Req {
	q := url.Values{"dies": {strconv.Itoa(dies)}, "seed": {strconv.FormatInt(seed, 10)}}
	req := tasks.FleetRequest{Dies: dies, Seed: seed}
	return getReq(tasks.KindFleetSweep, "/v1/fleet", q, func() (engine.Task, error) {
		return asTask(tasks.NewFleetTask(req))
	})
}

func predictReq(req tasks.PredictRequest) Req {
	body := struct {
		Predict tasks.PredictRequest `json:"predict"`
	}{req}
	return postReq(tasks.KindVccminPredict, "/v1/fleet", body, func() (engine.Task, error) {
		return asTask(tasks.NewPredictTask(req))
	})
}

func dvfsReq(wl string, scale int, seed int64) Req {
	pfail := 0.001 // the handler's default, which it always sets
	q := url.Values{"workloads": {wl}, "scale": {strconv.Itoa(scale)}, "seed": {strconv.FormatInt(seed, 10)}}
	req := tasks.DVFSExploreRequest{Workloads: []string{wl}, Pfail: &pfail, Seed: seed, Scale: scale}
	return getReq(tasks.KindDVFSExplore, "/v1/dvfs", q, func() (engine.Task, error) {
		return asTask(tasks.NewDVFSExploreTask(req))
	})
}

func queryReq(req tasks.QueryRequest) Req {
	return postReq(tasks.KindQuery, "/v1/query", req, func() (engine.Task, error) {
		return asTask(tasks.NewQueryTask(req))
	})
}

// faultSchemes are the simulated schemes whose answers depend on a
// drawn fault map, so every generated simulation exercises the faults
// layer too.
var faultSchemes = []string{"block", "word", "inc-word", "bitfix"}

// ---- replay ----

// Universe returns the replay workload's n distinct cheap requests, in
// equal quarters: analytic /v1/capacity, /v1/operating-point, POST
// /v1/sim at 3000 instructions and /v1/fleet at 64 dies. Distinctness
// is by engine identity, so every universe entry is its own stored
// result.
func Universe(seed int64, n int) ([]Req, error) {
	r := rng(seed, "replay-universe", 0)
	benches := workload.Names()
	grans := []string{"block", "set", "way"}
	seen := make(map[string]bool, n)
	out := make([]Req, 0, n)
	for len(out) < n {
		var q Req
		switch len(out) % 4 {
		case 0:
			q = capacityReq(logUniform(r, 1e-6, 1e-2), grans[r.IntN(len(grans))], 0, 1)
		case 1:
			q = operatingPointReq(logUniform(r, 1e-6, 1e-2))
		case 2:
			q = simReq(tasks.SimRequest{
				Benchmark:    benches[r.IntN(len(benches))],
				Scheme:       faultSchemes[r.IntN(len(faultSchemes))],
				Pfail:        logUniform(r, 1e-4, 3e-3),
				Seed:         1 + r.Int64N(1<<40),
				Instructions: 3000,
			})
		case 3:
			q = fleetReq(64, 1+r.Int64N(1<<40))
		}
		key, err := q.Key()
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out, nil
}

// Pick is the universe index of the replay stream's i-th request:
// uniform over n, a pure function of (seed, label, i).
func Pick(seed int64, label, i uint64, n int) int {
	return rng(seed, "replay-pick", label<<56|i).IntN(n)
}

// ---- cold ----

// ColdKinds is the cold workload's equal mix.
var ColdKinds = []string{tasks.KindSim, tasks.KindCapacity, tasks.KindFleetSweep, tasks.KindVccminPredict, tasks.KindDVFSExplore}

// ColdReq is the cold stream's i-th request: parameters drawn from
// (seed, label, i), and a seed parameter unique to (label, i) so that
// no two requests of one run share a canonical hash. Each block of five
// consecutive requests is a seeded permutation of the five kinds: the
// mix is exactly equal, and the order has no fixed cycle that the two
// clients could lock onto for a whole run.
func ColdReq(seed int64, label, i uint64) Req {
	r := rng(seed, "cold", label<<56|i)
	u := uniqSeed(seed, label, i)
	n := uint64(len(ColdKinds))
	perm := rng(seed, "cold-kinds", label<<56|i/n).Perm(len(ColdKinds))
	switch ColdKinds[perm[i%n]] {
	case tasks.KindSim:
		benches := workload.Names()
		return simReq(tasks.SimRequest{
			Benchmark:    benches[r.IntN(len(benches))],
			Scheme:       faultSchemes[r.IntN(len(faultSchemes))],
			Pfail:        logUniform(r, 1e-4, 3e-3),
			Seed:         u,
			Instructions: 20_000,
		})
	case tasks.KindCapacity:
		return capacityReq(logUniform(r, 1e-4, 3e-3), "", 200, u)
	case tasks.KindFleetSweep:
		return fleetReq(500, u)
	case tasks.KindVccminPredict:
		return predictReq(tasks.PredictRequest{Dies: 500, Sample: 64, Seed: u})
	default:
		wls := workload.MultiPhaseNames()
		return dvfsReq(wls[r.IntN(len(wls))], 4000, u)
	}
}

// ---- sweep-study ----

// StudySweep is the j-th study's sweep: 8 pfails × {block, word} × 2
// benchmarks × 2 trials × 5000 instructions, with a base seed unique to
// (label, j) so every study is a new job.
func StudySweep(seed int64, label, j uint64) tasks.SweepRequest {
	r := rng(seed, "study", label<<56|j)
	pf := make([]float64, 0, 8)
	for len(pf) < 8 {
		p := logUniform(r, 1e-4, 3e-3)
		dup := false
		for _, q := range pf {
			dup = dup || q == p
		}
		if !dup {
			pf = append(pf, p)
		}
	}
	sort.Float64s(pf)
	benches := workload.Names()
	a := r.IntN(len(benches))
	b := (a + 1 + r.IntN(len(benches)-1)) % len(benches)
	return tasks.SweepRequest{
		Pfails:       pf,
		Schemes:      []string{"block", "word"},
		Benchmarks:   []string{benches[a], benches[b]},
		Trials:       2,
		Instructions: 5000,
		BaseSeed:     uniqSeed(seed, label, j),
	}
}

// StudyCells is the simulated work of one study sweep:
// cells × benchmarks × trials × instructions.
func StudyCells(sr tasks.SweepRequest) (cells int, instructions float64) {
	cells = len(sr.Pfails) * len(sr.Schemes)
	return cells, float64(cells * len(sr.Benchmarks) * sr.Trials * sr.Instructions)
}

// StudyQueries are the 8 distinct group-bys a study issues on its
// finished job. The first one folds the checkpoint into colstore shards.
func StudyQueries(sr tasks.SweepRequest) []Req {
	mid := sr.Pfails[len(sr.Pfails)/2]
	shapes := []tasks.QueryRequest{
		{GroupBy: []string{"pfail"}},
		{GroupBy: []string{"scheme"}},
		{GroupBy: []string{"pfail", "scheme"}},
		{GroupBy: []string{"scheme"}, Metrics: []string{"mean_ipc", "baseline_ipc", "ipc_degradation"}},
		{GroupBy: []string{"pfail"}, Where: map[string]string{"scheme": "block-disable"}},
		{GroupBy: []string{"scheme"}, PfailMin: &mid},
		{Metrics: []string{"expected_capacity", "voltage", "frequency"}},
		{GroupBy: []string{"geometry", "scheme"}, Metrics: []string{"energy_per_instruction", "measured_capacity"}},
	}
	out := make([]Req, len(shapes))
	for i, q := range shapes {
		q.Sweep = sr
		out[i] = queryReq(q)
	}
	return out
}

// ---- stream digest ----

// digest hashes requests' wire forms; equal streams print equal digests.
func digest(reqs []Req) string {
	h := sha256.New()
	for _, q := range reqs {
		fmt.Fprintf(h, "%s %s %d\n", q.Method, q.Path, len(q.Body))
		h.Write(q.Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestLen is how many stream requests the printed digest covers,
// independent of how many a run got through.
const digestLen = 1024

// streamPrefix is the first n requests a workload sends in its measured
// window for seed; replay draws them from universe.
func streamPrefix(name string, seed int64, universe []Req, n int) []Req {
	var reqs []Req
	switch name {
	case "replay":
		for i := 0; i < n; i++ {
			reqs = append(reqs, universe[Pick(seed, labelMeasure, uint64(i), len(universe))])
		}
	case "cold":
		for i := 0; i < n; i++ {
			reqs = append(reqs, ColdReq(seed, labelMeasure, uint64(i)))
		}
	case "sweep-study":
		for j := uint64(0); len(reqs) < n; j++ {
			sr := StudySweep(seed, labelMeasure, j)
			reqs = append(reqs, postReq("", "/v1/sweeps", sr, nil))
			reqs = append(reqs, StudyQueries(sr)...)
		}
	}
	return reqs
}

// StreamDigest digests the first digestLen requests a workload sends in
// its measured window for seed, plus, for replay, the universe it draws
// from.
func StreamDigest(name string, seed int64, universe []Req) string {
	return digest(append(append([]Req(nil), universe...), streamPrefix(name, seed, universe, digestLen)...))
}
