package dvfs

// Differential suite for Explore's machine reuse. Explore used to build
// a fresh pair of sim.Systems for every cell (and the oracle probe yet
// another pair of its own); it now shares one keyed free list of
// machines across the call's cells, Resetting a machine on reuse, and
// the oracle probes on the run's own machines before warm-up. The
// build-per-run explorer is frozen here as refExplore and held to the
// production path across every scheme, victim and policy, at several
// worker counts, with a Config hook that changes the machine per cell.
// CI runs this suite under -race (make diff-race).

import (
	"reflect"
	"testing"

	"vccmin/internal/geom"
	"vccmin/internal/power"
	"vccmin/internal/sim"
	"vccmin/internal/workload"
)

// phaseGenerator builds a new generator of phase p's stream — the
// fresh-construction path the reference implementations use, with the
// seed the production runs derive.
func (c Config) phaseGenerator(p int) (*workload.Generator, error) {
	prof, err := workload.ByName(c.Workload.Phases[p].Benchmark)
	if err != nil {
		return nil, err
	}
	return workload.NewGenerator(prof, c.phaseSeed(p))
}

// refRun is the historical Run, frozen: fresh machines built for the
// run, warm-up, then the policy, whose oracle probe table comes from
// refProbeCycles (a fresh build per (mode, phase) cell) seeded into the
// probe memo so the production planner consumes exactly it.
func refRun(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		t.Fatal(err)
	}
	model := power.Default()
	r := &runner{cfg: cfg, model: model}
	r.freq[sim.HighVoltage], r.freq[sim.LowVoltage] = 1, cfg.LowFreq
	r.volt[sim.HighVoltage], r.volt[sim.LowVoltage] = 1, model.OperatingPointForPfail(cfg.Pfail).Voltage
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		sys, err := sim.Build(cfg.modeOptions(m))
		if err != nil {
			t.Fatal(err)
		}
		r.systems[m] = sys
	}
	if err := r.warmup(); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy == PolicyOracle {
		cycles := refProbeCycles(t, cfg)
		probeCache.Lock()
		probeCache.m[cfg.probeKey()] = cycles
		probeCache.Unlock()
	}
	decide, err := r.policy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.schedule(decide)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refExplore is the historical Explore, frozen and serial: one refRun
// per grid cell, in grid order, then the frontier marking.
func refExplore(t *testing.T, spec ExploreSpec) *ExploreResult {
	t.Helper()
	spec = spec.withDefaults()
	var runs []Result
	for _, w := range spec.Workloads {
		for _, sc := range spec.Schemes {
			for _, p := range spec.Policies {
				mp, err := workload.MultiPhaseByName(w)
				if err != nil {
					t.Fatal(err)
				}
				if spec.Scale > 0 {
					mp = mp.Scaled(spec.Scale)
				}
				cfg := Config{
					Workload:      mp,
					Scheme:        sc,
					Victim:        spec.Victim,
					Pfail:         spec.Pfail,
					Policy:        p,
					Seed:          spec.Seed,
					SwitchPenalty: spec.SwitchPenalty,
					Interval:      spec.Interval,
					IPCThreshold:  spec.IPCThreshold,
				}
				if spec.Config != nil {
					spec.Config(&cfg)
				}
				runs = append(runs, refRun(t, cfg))
			}
		}
	}
	points := make([]Point, len(runs))
	for i, r := range runs {
		share := 0.0
		if r.TotalInstructions > 0 {
			share = float64(r.LowInstructions) / float64(r.TotalInstructions)
		}
		points[i] = Point{
			Workload:             r.Workload,
			Scheme:               r.Scheme,
			Policy:               r.Policy,
			Performance:          r.Performance,
			Energy:               r.Energy,
			EnergyPerInstruction: r.EnergyPerInstruction,
			EnergyDelayProduct:   r.EnergyDelayProduct,
			LowVoltage:           r.LowVoltage,
			Switches:             r.Switches,
			LowInstructionShare:  share,
		}
	}
	MarkFrontier(points)
	return &ExploreResult{Points: points, Runs: runs}
}

// halfL1 moves the adaptive policies onto a 16 KB, 4-way L1, so one
// scheme's cells key two different machines and the free list must
// build for the new key rather than reuse the other's.
func halfL1(c *Config) {
	if c.Policy == PolicyReactive || c.Policy == PolicyInterval {
		c.Geometry = geom.MustNew(16*1024, 4, 64)
	}
}

func TestDifferentialExploreFreeList(t *testing.T) {
	for _, victim := range []sim.VictimKind{sim.NoVictim, sim.Victim10T, sim.Victim6T} {
		spec := ExploreSpec{
			Workloads: []string{"compute-memory-swing", "bursty-server"},
			Schemes:   []sim.Scheme{sim.BlockDisable, sim.WordDisable, sim.IncrementalWordDisable, sim.BitFix},
			Policies:  Policies(),
			Victim:    victim,
			Pfail:     0.002,
			Seed:      424245, // unique: the probes must run, not hit the memo of another test
			Scale:     2000,
			Config:    halfL1,
		}
		clearProbeCache()
		want := refExplore(t, spec)
		for _, workers := range []int{1, 2, 8} {
			spec.Workers = workers
			clearProbeCache()
			got, err := Explore(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want.Runs {
					if !reflect.DeepEqual(got.Runs[i], want.Runs[i]) {
						t.Fatalf("victim %s, workers %d: run %d (%s/%s/%s) differs from the build-per-run reference\n got %+v\nwant %+v",
							victim, workers, i, want.Runs[i].Workload, want.Runs[i].Scheme, want.Runs[i].Policy,
							got.Runs[i], want.Runs[i])
					}
				}
				t.Fatalf("victim %s, workers %d: explore result differs from the build-per-run reference", victim, workers)
			}
		}
	}
}
