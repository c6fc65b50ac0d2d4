// Package dvfs is the phase-aware dual-mode scheduler: it drives the
// Table III machines across the high-voltage (3 GHz, fully reliable) and
// low-voltage (600 MHz, fault-mitigated, below Vcc-min) domains while a
// multi-phase workload executes, deciding at chunk boundaries which mode
// the next slice of the instruction stream should run in.
//
// The paper's thesis is *performance-effective* operation below Vcc-min:
// not "run slow", but switch modes so the energy saving of the
// low-voltage domain is harvested exactly where it costs the least
// performance (memory-bound phases, whose stalls shrink with the clock)
// and the high-voltage domain is spent where it buys the most (compute
// phases). The scheduler executes one shared instruction stream
// (trace.PhasedGenerator over a workload.MultiPhase) on two persistent
// sim.Systems — one per mode, each keeping its own cache and predictor
// state — charging a configurable switch penalty (pipeline drain plus
// low-voltage cache re-certification) on every transition, and accounts
// time and energy per phase with the internal/power Fig. 1 model:
// a mode's cycles cost V²·cycles normalized energy and cycles/f
// normalized time.
//
// Five policies (PolicyKind) decide the schedule: the static-high and
// static-low bounds, an oracle that plans per-phase modes by dynamic
// programming over isolated per-phase probe costs, a reactive
// IPC-threshold policy, and a naive interval alternator. Explore runs a
// (workload × scheme × policy) grid and computes the Pareto frontier
// over (performance, energy), the repo's first cross-mode scenario
// engine.
//
// Everything is seeded: a Config's result is a pure function of its
// fields, byte-identical across runs and machines, which is what lets
// the sweep axis, the /v1/dvfs endpoint and the golden fixtures share
// one deterministic contract.
package dvfs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/power"
	"vccmin/internal/sim"
	"vccmin/internal/trace"
	"vccmin/internal/workload"
)

// Config describes one scheduled run.
type Config struct {
	// Workload is the multi-phase instruction stream to schedule.
	Workload workload.MultiPhase

	// Scheme and Victim configure the low-voltage cache mitigation
	// (high-voltage operation is always fully reliable).
	Scheme sim.Scheme
	Victim sim.VictimKind

	// Geometry is the L1 geometry of both mode machines (and of the
	// drawn fault maps). Zero value means the reference 32 KB, 8-way,
	// 64 B/block L1.
	Geometry geom.Geometry

	// Pfail is the per-cell failure probability at the low-voltage
	// operating point; it sizes both the drawn fault maps and the Fig. 1
	// voltage the energy accounting charges below Vcc-min.
	Pfail float64

	// Policy picks the mode schedule.
	Policy PolicyKind

	// Seed roots every random stream of the run (fault maps, workload
	// generators), via faults.DeriveSeed.
	Seed int64

	// SwitchPenalty is the cycle cost of one mode transition, charged in
	// the destination mode: pipeline drain, PLL relock and re-validating
	// the low-voltage way masks. Default 2000 cycles. Set -1 for zero.
	SwitchPenalty int

	// Interval is the decision-chunk size in instructions: policies are
	// consulted every Interval instructions (and always at phase
	// boundaries — chunks never span phases). It is also the alternation
	// period of PolicyInterval. Default 2000.
	Interval int

	// IPCThreshold drives PolicyReactive: a chunk executed at high
	// voltage observing IPC below it schedules the next chunk at low
	// voltage. Default 0.1 (between the memory-bound and compute-bound
	// bands of the synthetic profiles at reproduction scale).
	IPCThreshold float64

	// LowIPCScale multiplies IPCThreshold while running at low voltage,
	// where memory stalls shrink in cycle terms (51 versus 255 cycles)
	// and every profile's IPC rises: a low-mode chunk must beat
	// IPCThreshold·LowIPCScale to earn the switch back up. Default 2.5.
	LowIPCScale float64

	// PerfWeight is the oracle's λ: the time-versus-energy exchange rate
	// of its DP objective energy + λ·time. 0 (default) auto-calibrates λ
	// to the exchange rate between the two static schedules.
	PerfWeight float64

	// LowFreq is the low-voltage mode's normalized frequency. Default
	// 0.2 (Table III: 600 MHz against the 3 GHz high-voltage clock).
	LowFreq float64

	// Warmup instructions executed on each mode's system before the
	// measured run (drawn from dedicated warmup streams, not the
	// workload's). Default: half the first phase. Set -1 to disable.
	Warmup int

	// Model is the Fig. 1 power model; zero value means power.Default().
	Model *power.Model
}

// Default switch economics, shared by Config.withDefaults and
// ExploreSpec.withDefaults so a spec spelling out the defaults hashes
// identically to one omitting them.
const (
	DefaultSwitchPenalty = 2000
	DefaultInterval      = 2000
	DefaultIPCThreshold  = 0.1
)

func (c Config) withDefaults() Config {
	if c.SwitchPenalty == 0 {
		c.SwitchPenalty = DefaultSwitchPenalty
	}
	if c.SwitchPenalty < 0 {
		c.SwitchPenalty = 0
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.IPCThreshold == 0 {
		c.IPCThreshold = DefaultIPCThreshold
	}
	if c.LowIPCScale == 0 {
		c.LowIPCScale = 2.5
	}
	if c.LowFreq <= 0 {
		c.LowFreq = 0.2
	}
	if c.Warmup == 0 && len(c.Workload.Phases) > 0 {
		c.Warmup = c.Workload.Phases[0].Instructions / 2
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	return c
}

// Check validates the config.
func (c Config) Check() error {
	if err := c.Workload.Check(); err != nil {
		return err
	}
	if c.Pfail < 0 || c.Pfail >= 1 {
		return fmt.Errorf("dvfs: pfail %v out of [0,1)", c.Pfail)
	}
	if c.Policy == PolicyNone {
		return fmt.Errorf("dvfs: config needs a policy")
	}
	return nil
}

// PhaseBreakdown is one phase's share of a scheduled run.
type PhaseBreakdown struct {
	Index        int     `json:"index"`
	Benchmark    string  `json:"benchmark"`
	Instructions int     `json:"instructions"`
	HighCycles   uint64  `json:"high_cycles"`
	LowCycles    uint64  `json:"low_cycles"`
	Time         float64 `json:"time"`   // normalized (high-voltage clock) time
	Energy       float64 `json:"energy"` // normalized energy
}

// Result is one scheduled run's accounting.
type Result struct {
	Workload string  `json:"workload"`
	Scheme   string  `json:"scheme"`
	Victim   string  `json:"victim"`
	Policy   string  `json:"policy"`
	Pfail    float64 `json:"pfail"`
	Seed     int64   `json:"seed"`

	// LowVoltage is the normalized supply of the low mode (the Fig. 1
	// voltage at Pfail, clamped to [VFloor, VccMin]); the high mode runs
	// at 1.0.
	LowVoltage float64 `json:"low_voltage"`

	TotalInstructions int     `json:"total_instructions"`
	Switches          int     `json:"switches"`
	HighInstructions  int     `json:"high_instructions"`
	LowInstructions   int     `json:"low_instructions"`
	Time              float64 `json:"time"`   // normalized time incl. switch penalties
	Energy            float64 `json:"energy"` // normalized energy incl. switch penalties

	// Performance is instructions per normalized time unit — equal to
	// plain IPC when the whole run stays at high voltage.
	Performance          float64 `json:"performance"`
	EnergyPerInstruction float64 `json:"energy_per_instruction"`
	EnergyDelayProduct   float64 `json:"energy_delay_product"`

	Phases []PhaseBreakdown `json:"phases"`
}

// runner bundles the per-mode machines and accounting of one run.
type runner struct {
	cfg   Config
	model power.Model

	// systems are the run's machines, indexed by sim.Mode and acquired
	// on first use (see system): taken from free when the run belongs to
	// an Explore call, built fresh otherwise. Generators come and go the
	// same way.
	systems [2]*sim.System
	gens    []benchGenerator // every generator the run has taken
	free    *freeList
	freq    [2]float64
	volt    [2]float64
}

// geometry returns the config's L1 geometry, defaulting to the
// reference Table III L1.
func (c Config) geometry() geom.Geometry {
	if c.Geometry.SizeBytes != 0 {
		return c.Geometry
	}
	ref := sim.Reference(sim.HighVoltage)
	return geom.MustNew(ref.L1Size, ref.L1Ways, ref.L1BlockBytes)
}

// modeOptions builds the sim.Options for one mode: the config's L1
// geometry applied to that mode's Table III machine, and the fault-map
// pair (drawn over the same geometry from the config's seed) for
// fault-dependent schemes.
func (c Config) modeOptions(m sim.Mode) sim.Options {
	g := c.geometry()
	machine := sim.Reference(m)
	machine.L1Size, machine.L1Ways, machine.L1BlockBytes = g.SizeBytes, g.Ways, g.BlockBytes
	opts := sim.Options{Mode: m, Scheme: c.Scheme, Victim: c.Victim, Machine: &machine}
	if m == sim.LowVoltage &&
		(c.Scheme == sim.BlockDisable || c.Scheme == sim.IncrementalWordDisable) {
		pair := faults.GeneratePairSparse(g, g, 32, c.Pfail,
			faults.DeriveSeed(c.Seed, "dvfs-pair", c.Workload.Name))
		opts.Pair = &pair
	}
	return opts
}

// phaseSeed is phase p's workload generator seed. The probe runs and
// the scheduled run derive identical seeds, so the oracle's isolated
// measurements see exactly the instruction stream the real run executes.
func (c Config) phaseSeed(p int) int64 {
	return faults.DeriveSeed(c.Seed, "dvfs-phase", strconv.Itoa(p), c.Workload.Phases[p].Benchmark)
}

// phaseGenerator returns a generator of phase p's stream.
func (r *runner) phaseGenerator(p int) (*workload.Generator, error) {
	return r.generator(r.cfg.Workload.Phases[p].Benchmark, r.cfg.phaseSeed(p))
}

// generator returns a generator of benchmark bench's stream at seed:
// an idle one of the free list's, Reset to seed (which replays exactly
// the stream a new generator would emit), or a new one. The run keeps
// it until release.
func (r *runner) generator(bench string, seed int64) (*workload.Generator, error) {
	gen := r.free.takeGenerator(bench)
	if gen != nil {
		gen.Reset(seed)
	} else {
		prof, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		if gen, err = workload.NewGenerator(prof, seed); err != nil {
			return nil, err
		}
	}
	r.gens = append(r.gens, benchGenerator{bench, gen})
	return gen, nil
}

// Run executes the workload under the config's policy and returns the
// full accounting. The result is a pure function of the config.
func Run(cfg Config) (Result, error) { return run(cfg, nil) }

// run is Run drawing its machines and generators from free (nil: make
// them fresh) and returning them there when done.
func run(cfg Config, free *freeList) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		return Result{}, err
	}
	model := power.Default()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	// The low mode sits at the Fig. 1 operating point for this pfail —
	// the same (clamped) voltage every sweep cell and /v1/operating-point
	// report, so the layers can never disagree on what "low" costs.
	lowV := model.OperatingPointForPfail(cfg.Pfail).Voltage

	r := &runner{cfg: cfg, model: model, free: free}
	r.freq[sim.HighVoltage], r.freq[sim.LowVoltage] = 1, cfg.LowFreq
	r.volt[sim.HighVoltage], r.volt[sim.LowVoltage] = 1, lowV
	defer r.release()

	// The oracle probes on the run's own machines, so the policy is
	// materialized before warm-up; the probe leaves both machines Reset.
	decide, err := r.policy()
	if err != nil {
		return Result{}, err
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		if _, err := r.system(m); err != nil {
			return Result{}, err
		}
	}
	if err := r.warmup(); err != nil {
		return Result{}, err
	}
	return r.schedule(decide)
}

// system returns the run's machine for mode m, acquiring it on first
// use: a Reset machine from the free list when one is idle for the
// config's key, a fresh sim.Build otherwise.
func (r *runner) system(m sim.Mode) (*sim.System, error) {
	if sys := r.systems[m]; sys != nil {
		return sys, nil
	}
	sys := r.free.take(r.cfg.systemKey(m))
	if sys == nil {
		var err error
		if sys, err = sim.Build(r.cfg.modeOptions(m)); err != nil {
			return nil, fmt.Errorf("dvfs: building %s system: %w", m, err)
		}
	}
	r.systems[m] = sys
	return sys, nil
}

// release hands the run's machines and generators back to the free
// list.
func (r *runner) release() {
	for m, sys := range r.systems {
		if sys != nil {
			r.free.put(r.cfg.systemKey(sim.Mode(m)), sys)
			r.systems[m] = nil
		}
	}
	r.free.putGenerators(r.gens)
	r.gens = nil
}

// warmup runs each mode's system over a dedicated stream of the first
// phase's profile so neither machine starts with stone-cold caches and
// predictors.
func (r *runner) warmup() error {
	if r.cfg.Warmup <= 0 {
		return nil
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		gen, err := r.generator(r.cfg.Workload.Phases[0].Benchmark,
			faults.DeriveSeed(r.cfg.Seed, "dvfs-warmup", m.String()))
		if err != nil {
			return err
		}
		r.systems[m].CPU.Run(gen, r.cfg.Warmup)
	}
	return nil
}

// systemKey identifies a machine by everything modeOptions reads: the
// probeKey fields minus the phase list, plus the mode. Two configs with
// equal keys build bit-identical systems, so a Reset machine of one
// serves the other.
type systemKey struct {
	probeKey
	mode sim.Mode
}

func (c Config) systemKey(m sim.Mode) systemKey {
	return systemKey{
		probeKey: probeKey{
			g:      c.geometry(),
			scheme: c.Scheme,
			victim: c.Victim,
			pfail:  c.Pfail,
			seed:   c.Seed,
			name:   c.Workload.Name,
		},
		mode: m,
	}
}

// freeList holds the idle machines of one Explore call, keyed by
// systemKey. A run takes a machine for its key and puts it back when
// done; sim.System.Reset makes a reused machine bit-identical to a
// fresh Build, so results never depend on which cell built it or on
// worker scheduling. The list knows how many runs use each key, so the
// last run of a key drops its machine instead of parking it for the
// rest of the call. Every method is safe on a nil list, which never
// holds anything (a standalone Run builds its own machines).
type freeList struct {
	mu   sync.Mutex
	idle map[systemKey][]*sim.System
	left map[systemKey]int // runs yet to put a machine back, per key

	// Idle workload generators by benchmark name. Any of them Resets to
	// any seed, so they need no run count: the list holds at most what
	// the call's busiest moment used.
	gens map[string][]*workload.Generator
}

// benchGenerator is a workload generator with its benchmark name, the
// key it goes back to the free list under.
type benchGenerator struct {
	bench string
	gen   *workload.Generator
}

// newFreeList returns the free list for the runs of cfgs (defaults
// need not be applied: the key reads no defaulted field but the
// geometry, which it defaults itself).
func newFreeList(cfgs []Config) *freeList {
	f := &freeList{idle: map[systemKey][]*sim.System{}, left: map[systemKey]int{},
		gens: map[string][]*workload.Generator{}}
	for _, c := range cfgs {
		for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
			f.left[c.systemKey(m)]++
		}
	}
	return f
}

// pop removes and returns the last idle entry under k, or the zero
// value when there is none.
func pop[K comparable, V any](idle map[K][]V, k K) (v V) {
	if list := idle[k]; len(list) > 0 {
		v, idle[k] = list[len(list)-1], list[:len(list)-1]
	}
	return v
}

// take removes and returns a Reset idle machine for k, or nil.
func (f *freeList) take(k systemKey) *sim.System {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	sys := pop(f.idle, k)
	f.mu.Unlock()
	if sys != nil {
		sys.Reset()
	}
	return sys
}

// put returns a run's machine to the list, or lets it go when no later
// run needs its key.
func (f *freeList) put(k systemKey, sys *sim.System) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.left[k]--; f.left[k] > 0 {
		f.idle[k] = append(f.idle[k], sys)
	} else {
		delete(f.idle, k)
	}
	f.mu.Unlock()
}

// takeGenerator removes and returns an idle generator of bench's
// profile, or nil; the caller Resets it.
func (f *freeList) takeGenerator(bench string) *workload.Generator {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return pop(f.gens, bench)
}

// putGenerators returns a run's generators to the list.
func (f *freeList) putGenerators(gens []benchGenerator) {
	if f == nil {
		return
	}
	f.mu.Lock()
	for _, g := range gens {
		f.gens[g.bench] = append(f.gens[g.bench], g.gen)
	}
	f.mu.Unlock()
}

// probeKey identifies everything the oracle's probe cycle counts depend
// on: the machine (geometry, scheme, victim), the fault-map pair (pfail,
// seed, workload name — the pair seed derives from them) and the phase
// list (each phase's generator seed derives from the config seed, the
// phase index and the benchmark name). Frequency, voltage, switch
// economics and the power model scale cycles into time and energy AFTER
// the probe, so they are deliberately absent.
type probeKey struct {
	g      geom.Geometry
	scheme sim.Scheme
	victim sim.VictimKind
	pfail  float64
	seed   int64
	name   string
	phases string
}

func (c Config) probeKey() probeKey {
	var b strings.Builder
	for _, ph := range c.Workload.Phases {
		fmt.Fprintf(&b, "%d:%s:%d;", len(ph.Benchmark), ph.Benchmark, ph.Instructions)
	}
	k := c.systemKey(sim.HighVoltage).probeKey
	k.phases = b.String()
	return k
}

// probeCache memoizes probe cycle tables across runs. Probe cycles are a
// pure function of the probeKey, so a hit is observationally identical
// to re-simulating — it just skips the dominant cost of an oracle run
// (every phase in both modes). Explore's parallel jobs share it, hence
// the lock. probeCacheCap bounds growth: at the cap the cache drops
// everything (entries are cheap to recompute and a full wipe keeps the
// policy deterministic).
var probeCache = struct {
	sync.Mutex
	m map[probeKey][2][]uint64
}{m: map[probeKey][2][]uint64{}}

const probeCacheCap = 128

// probeCycles measures every phase in isolation in both modes (the
// oracle's cost table) on the run's own machines, with a Reset before
// each phase and again after the last — bit-identical to building a
// fresh system per (mode, phase) cell, at a fraction of the cost, and
// leaving the machines as if just built — memoizing the result in
// probeCache.
func (r *runner) probeCycles() ([2][]uint64, error) {
	cfg := r.cfg
	key := cfg.probeKey()
	probeCache.Lock()
	cycles, ok := probeCache.m[key]
	probeCache.Unlock()
	if ok {
		return cycles, nil
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		cycles[m] = make([]uint64, len(cfg.Workload.Phases))
		sys, err := r.system(m)
		if err != nil {
			return cycles, err
		}
		for p, ph := range cfg.Workload.Phases {
			sys.Reset()
			gen, err := r.phaseGenerator(p)
			if err != nil {
				return cycles, err
			}
			cycles[m][p] = sys.CPU.Run(gen, ph.Instructions).Cycles
		}
		sys.Reset()
	}
	probeCache.Lock()
	if len(probeCache.m) >= probeCacheCap {
		probeCache.m = map[probeKey][2][]uint64{}
	}
	probeCache.m[key] = cycles
	probeCache.Unlock()
	return cycles, nil
}

// probe scales the (possibly cached) probe cycle table into the oracle's
// normalized time and energy costs at this run's operating points.
func (r *runner) probe() (energy, time [2][]float64, err error) {
	cycles, err := r.probeCycles()
	if err != nil {
		return energy, time, err
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		energy[m] = make([]float64, len(cycles[m]))
		time[m] = make([]float64, len(cycles[m]))
		for p, cy := range cycles[m] {
			c := float64(cy)
			energy[m][p] = r.volt[m] * r.volt[m] * c
			time[m][p] = c / r.freq[m]
		}
	}
	return energy, time, nil
}

// policy materializes the config's PolicyKind as a decision function.
func (r *runner) policy() (policyFunc, error) {
	cfg := r.cfg
	switch cfg.Policy {
	case PolicyStaticHigh:
		return func(decisionContext) sim.Mode { return sim.HighVoltage }, nil
	case PolicyStaticLow:
		return func(decisionContext) sim.Mode { return sim.LowVoltage }, nil
	case PolicyInterval:
		return func(d decisionContext) sim.Mode {
			if d.Chunk%2 == 0 {
				return sim.HighVoltage
			}
			return sim.LowVoltage
		}, nil
	case PolicyReactive:
		return func(d decisionContext) sim.Mode {
			if !d.HaveSample {
				return sim.HighVoltage
			}
			// The bar rises at low voltage: shrunken memory stalls lift
			// every profile's IPC, so earning the switch back up takes
			// LowIPCScale times the high-mode threshold.
			threshold := cfg.IPCThreshold
			if d.Mode == sim.LowVoltage {
				threshold *= cfg.LowIPCScale
			}
			if d.LastIPC < threshold {
				return sim.LowVoltage
			}
			return sim.HighVoltage
		}, nil
	case PolicyOracle:
		energy, time, err := r.probe()
		if err != nil {
			return nil, err
		}
		lambda := cfg.PerfWeight
		if lambda <= 0 {
			// Exchange rate between the static schedules: the energy a
			// joule-per-second the all-low schedule trades against the
			// all-high one. Degenerate gaps fall back to 1.
			var eH, eL, tH, tL float64
			for p := range cfg.Workload.Phases {
				eH += energy[sim.HighVoltage][p]
				eL += energy[sim.LowVoltage][p]
				tH += time[sim.HighVoltage][p]
				tL += time[sim.LowVoltage][p]
			}
			if tL > tH && eH > eL {
				lambda = (eH - eL) / (tL - tH)
			} else {
				lambda = 1
			}
		}
		pen := float64(cfg.SwitchPenalty)
		plan := planOracle(len(cfg.Workload.Phases), lambda,
			func(p int, m sim.Mode) float64 { return energy[m][p] },
			func(p int, m sim.Mode) float64 { return time[m][p] },
			func(to sim.Mode) float64 { return r.volt[to] * r.volt[to] * pen },
			func(to sim.Mode) float64 { return pen / r.freq[to] })
		return func(d decisionContext) sim.Mode { return plan[d.Phase] }, nil
	}
	return nil, fmt.Errorf("dvfs: policy %s is not schedulable", cfg.Policy)
}

// schedule executes the shared phased stream chunk by chunk, consulting
// the policy at every chunk boundary and charging switch penalties on
// mode transitions.
func (r *runner) schedule(decide policyFunc) (Result, error) {
	cfg := r.cfg
	res := Result{
		Workload:          cfg.Workload.Name,
		Scheme:            cfg.Scheme.String(),
		Victim:            cfg.Victim.String(),
		Policy:            cfg.Policy.String(),
		Pfail:             cfg.Pfail,
		Seed:              cfg.Seed,
		LowVoltage:        r.volt[sim.LowVoltage],
		TotalInstructions: cfg.Workload.TotalInstructions(),
		Phases:            make([]PhaseBreakdown, len(cfg.Workload.Phases)),
	}
	for p, ph := range cfg.Workload.Phases {
		res.Phases[p] = PhaseBreakdown{Index: p, Benchmark: ph.Benchmark, Instructions: ph.Instructions}
	}

	segs := make([]trace.Segment, len(cfg.Workload.Phases))
	for p, ph := range cfg.Workload.Phases {
		gen, err := r.phaseGenerator(p)
		if err != nil {
			return Result{}, err
		}
		segs[p] = trace.Segment{Gen: gen, Instructions: ph.Instructions}
	}
	stream := trace.NewPhased(segs)

	r.runChunks(decide, &res, stream)

	if res.Time > 0 {
		res.Performance = float64(res.TotalInstructions) / res.Time
	}
	res.EnergyPerInstruction = res.Energy / float64(res.TotalInstructions)
	res.EnergyDelayProduct = res.Energy * res.Time
	return res, nil
}

// runChunks is the scheduler's hot loop: execute the phased stream chunk
// by chunk, consulting the policy at every boundary and charging switch
// penalties on transitions, accumulating into res (whose Phases slice
// the caller pre-sized). Everything it needs — the DP plan behind an
// oracle decide, the per-mode systems, the phase accounting slots — is
// materialized before the first chunk, so the loop itself allocates
// nothing (TestOracleChunkLoopAllocs pins this).
func (r *runner) runChunks(decide policyFunc, res *Result, stream *trace.PhasedGenerator) {
	cfg := r.cfg
	mode := sim.HighVoltage
	d := decisionContext{Mode: mode}
	left := res.TotalInstructions
	for chunk := 0; left > 0; chunk++ {
		d.Phase, d.Chunk = stream.Phase(), chunk
		next := decide(d)
		if d.HaveSample && next != mode {
			// Transition: penalty cycles charged in the destination mode.
			pen := float64(cfg.SwitchPenalty)
			res.Switches++
			res.Time += pen / r.freq[next]
			res.Energy += r.volt[next] * r.volt[next] * pen
			res.Phases[d.Phase].Time += pen / r.freq[next]
			res.Phases[d.Phase].Energy += r.volt[next] * r.volt[next] * pen
		}
		mode = next

		n := cfg.Interval
		if rem := stream.Remaining(); n > rem {
			n = rem
		}
		if n > left {
			n = left
		}
		stats := r.systems[mode].CPU.Run(stream, n)
		left -= n

		c := float64(stats.Cycles)
		t, e := c/r.freq[mode], r.volt[mode]*r.volt[mode]*c
		res.Time += t
		res.Energy += e
		pb := &res.Phases[d.Phase]
		pb.Time += t
		pb.Energy += e
		if mode == sim.HighVoltage {
			pb.HighCycles += stats.Cycles
			res.HighInstructions += n
		} else {
			pb.LowCycles += stats.Cycles
			res.LowInstructions += n
		}

		d.Mode = mode
		d.LastIPC = stats.IPC()
		d.HaveSample = true
	}
}
