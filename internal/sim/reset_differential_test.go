package sim

import (
	"fmt"
	"reflect"
	"testing"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/workload"
)

// TestDifferentialResetMatchesBuild pins the contract dvfs's machine
// reuse rests on: a System that has run, then been Reset, runs
// bit-identically to a freshly built one — for every scheme, victim
// cache and mode, with the next-line prefetcher and the L2 fault map
// extensions in the mix. A stateful System field that Reset forgets
// shows up here as a differing Result.
func TestDifferentialResetMatchesBuild(t *testing.T) {
	g := geom.MustNew(32*1024, 8, 64)
	pair := faults.GeneratePairSparse(g, g, 32, 0.002, 21)
	g2 := geom.MustNew(2*1024*1024, 8, 64)
	l2map := faults.GenerateMapSparse(g2, 32, 0.001, 22)
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) *workload.Generator {
		return workload.MustNewGenerator(prof, seed)
	}

	extras := []struct {
		name  string
		apply func(*Options)
	}{
		{"plain", func(*Options) {}},
		{"prefetch", func(o *Options) { o.PrefetchNextLine = true }},
		{"l2map", func(o *Options) { o.L2Map = l2map }},
		{"prefetch+l2map", func(o *Options) { o.PrefetchNextLine, o.L2Map = true, l2map }},
	}
	for _, scheme := range []Scheme{Baseline, WordDisable, BlockDisable, IncrementalWordDisable, BitFix} {
		for _, victim := range []VictimKind{NoVictim, Victim10T, Victim6T} {
			for _, mode := range []Mode{HighVoltage, LowVoltage} {
				for _, ex := range extras {
					name := fmt.Sprintf("%s/%s/%s/%s", scheme, victim, mode, ex.name)
					opts := Options{Mode: mode, Scheme: scheme, Victim: victim, Pair: &pair,
						Instructions: 8000, Warmup: 4000}
					ex.apply(&opts)

					fresh, err := Build(opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := fresh.run(opts, gen(7))

					reused, err := Build(opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					reused.run(opts, gen(8)) // dirty every structure first
					reused.Reset()
					if got := reused.run(opts, gen(7)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: run after Reset differs from a fresh Build\n got %+v\nwant %+v", name, got, want)
					}
				}
			}
		}
	}
}
