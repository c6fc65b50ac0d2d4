package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"vccmin/internal/service"
)

var workloadNames = []string{"replay", "cold", "sweep-study"}

// stream returns the first n requests of a workload's measured stream.
func stream(t *testing.T, name string, seed int64, n int) []Req {
	t.Helper()
	u, err := Universe(seed, 256)
	if err != nil {
		t.Fatal(err)
	}
	return streamPrefix(name, seed, u, n)
}

func sameWire(a, b []Req) bool {
	return slices.EqualFunc(a, b, func(x, y Req) bool {
		return x.Method == y.Method && x.Path == y.Path && bytes.Equal(x.Body, y.Body)
	})
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		if !sameWire(stream(t, name, 7, 200), stream(t, name, 7, 200)) {
			t.Errorf("%s: two streams for seed 7 differ", name)
		}
		u, _ := Universe(7, 64)
		if StreamDigest(name, 7, u) != StreamDigest(name, 7, u) {
			t.Errorf("%s: digest not reproducible", name)
		}
	}
}

func TestDifferentSeedDifferentStream(t *testing.T) {
	for _, name := range workloadNames {
		if sameWire(stream(t, name, 7, 200), stream(t, name, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
		u7, _ := Universe(7, 64)
		u8, _ := Universe(8, 64)
		if StreamDigest(name, 7, u7) == StreamDigest(name, 8, u8) {
			t.Errorf("%s: seeds 7 and 8 give the same digest", name)
		}
	}
}

// Every cold request of a run — warm-up and measured — must be a new
// canonical hash, or an answer could come from a store tier.
func TestColdNeverRepeatsAHash(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 500
	}
	seen := make(map[string]string)
	for _, label := range []uint64{labelWarmup, labelMeasure} {
		for i := 0; i < n; i++ {
			q := ColdReq(3, label, uint64(i))
			key, err := q.Key()
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if prev, ok := seen[key]; ok {
				t.Fatalf("%s %s repeats the hash of %s", q.Method, q.Path, prev)
			}
			seen[key] = q.Path + string(q.Body)
		}
	}
	kinds := make(map[string]int)
	for i := 0; i < 5*len(ColdKinds); i++ {
		kinds[ColdReq(3, labelMeasure, uint64(i)).Kind]++
	}
	for _, k := range ColdKinds {
		if kinds[k] != 5 {
			t.Errorf("kind %s appears %d times in 25 requests, want an equal mix", k, kinds[k])
		}
	}
}

// The replay universe must be 4× the memory tier of a default server,
// all distinct, in equal quarters of the four cheap kinds.
func TestReplayUniverseIsFourTimesTheMemoryTier(t *testing.T) {
	svc, err := service.New(service.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tier := svc.Engine().MemStats().Max
	if replayUniverseFactor != 4 {
		t.Fatalf("universe factor %d, want 4", replayUniverseFactor)
	}
	u, err := Universe(5, replayUniverseFactor*tier)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 4*tier {
		t.Fatalf("universe has %d requests, memory tier %d entries", len(u), tier)
	}
	keys := make(map[string]bool)
	kinds := make(map[string]int)
	for _, q := range u {
		key, err := q.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
		kinds[q.Kind]++
	}
	if len(keys) != len(u) {
		t.Errorf("%d distinct keys in a universe of %d", len(keys), len(u))
	}
	for kind, n := range kinds {
		if n != tier {
			t.Errorf("%s: %d requests, want %d", kind, n, tier)
		}
	}
}

func TestStudiesAreDistinctJobsAndQueries(t *testing.T) {
	jobs := make(map[string]bool)
	queries := make(map[string]bool)
	for j := uint64(0); j < 50; j++ {
		sr := StudySweep(9, labelMeasure, j)
		spec, err := sr.Spec()
		if err != nil {
			t.Fatal(err)
		}
		jobs[spec.WithDefaults().CanonicalHash()] = true
		if cells, _ := StudyCells(sr); cells != 16 {
			t.Fatalf("study has %d cells, want 16", cells)
		}
		for _, q := range StudyQueries(sr) {
			key, err := q.Key()
			if err != nil {
				t.Fatal(err)
			}
			queries[key] = true
		}
	}
	if len(jobs) != 50 || len(queries) != 400 {
		t.Errorf("%d distinct jobs of 50, %d distinct queries of 400", len(jobs), len(queries))
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, beyond := quantile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := quantile(xs, 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
}

// The histogram's quantiles must match the exact nearest-rank ones to
// within its one-bucket resolution, with the same count beyond.
func TestHistogramQuantilesMatchExactOnes(t *testing.T) {
	xs := make([]float64, 5000)
	h := newLatHist()
	for i := range xs {
		xs[i] = 0.01 * math.Exp(float64(i%977)/100) // 0.01 ms .. 170 ms
		h.add(xs[i])
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want, wantBeyond := quantile(xs, q)
		got, beyond := h.quantile(q)
		if math.Abs(got/want-1) > 0.005 || beyond != wantBeyond {
			t.Errorf("q=%v: histogram %v (%d beyond), exact %v (%d beyond)", q, got, beyond, want, wantBeyond)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Start: at(30), End: at(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: at(90), End: at(200)}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self[1], 50*time.Millisecond; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
}

// The JSON result line must carry exactly the metrics BENCHMARK.json
// declares.
func TestResultMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, jsonEndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", got, jsonEndToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, jsonPerLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", got, jsonPerLayer)
	}
}

// A short run of every workload, untraced and traced, must check every
// answer and end with a correct JSON result line.
func TestShortRunsAreCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code, err := run([]string{"--workload", name, "--seed", "2", "--seconds", "0.5",
				"--trace", trace, "--workdir", t.TempDir()}, &out)
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%s: exit %d: %v\n%s", name, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: %+v\n%s", name, trace, res, out.String())
			}
		}
	}
}
