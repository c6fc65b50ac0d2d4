package dvfs

import (
	"runtime"
	"testing"

	"vccmin/internal/sim"
	"vccmin/internal/workload"
)

// benchWorkload returns the swing workload at a fixed small scale so the
// benchmark measures scheduling overhead, not simulation volume drift.
func benchWorkload(b *testing.B) workload.MultiPhase {
	b.Helper()
	mp, err := workload.MultiPhaseByName("compute-memory-swing")
	if err != nil {
		b.Fatal(err)
	}
	return mp.Scaled(12_000)
}

// BenchmarkDVFSOracleSchedule times one full oracle run: per-phase probe
// table, DP plan and the scheduled dual-mode execution.
func BenchmarkDVFSOracleSchedule(b *testing.B) {
	mp := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Workload: mp,
			Scheme:   sim.BlockDisable,
			Pfail:    0.001,
			Policy:   PolicyOracle,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Performance, "perf-norm")
			b.ReportMetric(res.EnergyPerInstruction, "epi-norm")
		}
	}
}

// BenchmarkDVFSReactiveSchedule times the online policy: no probe runs,
// just chunked execution with per-chunk decisions.
func BenchmarkDVFSReactiveSchedule(b *testing.B) {
	mp := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{
			Workload: mp,
			Scheme:   sim.BlockDisable,
			Pfail:    0.001,
			Policy:   PolicyReactive,
			Seed:     1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// coldExploreSpec is the shape of one cold /v1/dvfs request: a single
// multi-phase workload at scale 4000 over the default schemes and
// policies. One worker keeps the numbers independent of the core count
// (and the machine reuse, hence allocs/op, independent of scheduling).
func coldExploreSpec() ExploreSpec {
	return ExploreSpec{Workloads: []string{"compute-memory-swing"}, Scale: 4000, Seed: 1, Workers: 1}
}

// clearProbeCache empties the process-wide probe memo, so the next
// oracle run probes again as a cold request (unique seed) would.
func clearProbeCache() {
	probeCache.Lock()
	probeCache.m = map[probeKey][2][]uint64{}
	probeCache.Unlock()
}

// BenchmarkDVFSExploreCold times one cold explore request end to end:
// ten (scheme × policy) runs sharing one free list of machines, the
// oracle probes included (the probe memo is cleared every iteration).
func BenchmarkDVFSExploreCold(b *testing.B) {
	spec := coldExploreSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clearProbeCache()
		if _, err := Explore(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExploreColdAllocs gates BenchmarkDVFSExploreCold's allocations.
// With one worker the free list builds each (scheme, mode) machine
// exactly once and each phase's generator about once, so a cold explore
// allocates about 4.8 MB in about 580 objects; building per run
// allocated 29.7 MB in 5425. The ceilings leave about 25% headroom, far
// below what one extra machine pair per cell would cost.
func TestExploreColdAllocs(t *testing.T) {
	const maxBytes, maxAllocs = 6 << 20, 750
	spec := coldExploreSpec()
	explore := func() {
		clearProbeCache()
		if _, err := Explore(spec); err != nil {
			t.Fatal(err)
		}
	}
	explore() // warm the profile and workload tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(2, explore)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the two it averages.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 3
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("cold explore allocates %.0f objects, %.1f MiB per call; ceilings %d, %d MiB",
			allocs, bytes/(1<<20), maxAllocs, maxBytes>>20)
	}
}
