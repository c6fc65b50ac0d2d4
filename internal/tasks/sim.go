package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/experiments"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/sim"
)

// SimRequest is one simulation run's parameters (the POST /v1/sim body).
// String fields use the CLI forms (scheme "block", victim "10t", mode
// "low"); zero values take the reference defaults.
type SimRequest struct {
	Benchmark    string  `json:"benchmark"`
	Mode         string  `json:"mode"`
	Scheme       string  `json:"scheme"`
	Victim       string  `json:"victim"`
	Geometry     string  `json:"geometry"`
	Pfail        float64 `json:"pfail"`
	Seed         int64   `json:"seed"`
	Instructions int     `json:"instructions"`
}

// Options converts the request into the simulator's option form,
// drawing the deterministic fault-map pair fault-dependent schemes need
// at low voltage.
func (req SimRequest) Options() (sim.Options, error) {
	opts := sim.Options{Benchmark: req.Benchmark, Seed: req.Seed, Instructions: req.Instructions}
	if opts.Benchmark == "" {
		return opts, fmt.Errorf("benchmark is required")
	}
	switch req.Mode {
	case "", "low", "low-voltage":
		opts.Mode = sim.LowVoltage
	case "high", "high-voltage":
		opts.Mode = sim.HighVoltage
	default:
		return opts, fmt.Errorf("bad mode %q (want low or high)", req.Mode)
	}
	var err error
	if req.Scheme != "" {
		if opts.Scheme, err = sim.ParseScheme(req.Scheme); err != nil {
			return opts, err
		}
	}
	if req.Victim != "" {
		if opts.Victim, err = sim.ParseVictim(req.Victim); err != nil {
			return opts, err
		}
	}
	g := experiments.ReferenceGeometry()
	if req.Geometry != "" {
		if g, err = geom.Parse(req.Geometry); err != nil {
			return opts, err
		}
		machine := sim.Reference(opts.Mode)
		machine.L1Size, machine.L1Ways, machine.L1BlockBytes = g.SizeBytes, g.Ways, g.BlockBytes
		opts.Machine = &machine
	}
	if req.Pfail < 0 || req.Pfail >= 1 {
		return opts, fmt.Errorf("pfail %v out of [0,1)", req.Pfail)
	}
	// Fault-dependent schemes at low voltage need a fault-map pair; draw
	// it deterministically from the request's pfail and seed on the
	// sparse fast path.
	if opts.Mode == sim.LowVoltage && (opts.Scheme == sim.BlockDisable ||
		opts.Scheme == sim.IncrementalWordDisable || opts.Scheme == sim.BitFix) {
		pair := faults.GeneratePairSparse(g, g, 32, req.Pfail, faults.DeriveSeed(req.Seed, "serve-sim-pair"))
		opts.Pair = &pair
	}
	return opts, nil
}

// SimResponse summarizes one simulation run.
type SimResponse struct {
	Benchmark     string  `json:"benchmark"`
	Mode          string  `json:"mode"`
	Scheme        string  `json:"scheme"`
	Victim        string  `json:"victim"`
	Pfail         float64 `json:"pfail"`
	Seed          int64   `json:"seed"`
	Instructions  int     `json:"instructions"`
	IPC           float64 `json:"ipc"`
	ICapacity     float64 `json:"i_capacity"`
	DCapacity     float64 `json:"d_capacity"`
	VictimHitRate float64 `json:"victim_hit_rate"`
}

// SimTask runs one simulation.
type SimTask struct {
	Req SimRequest
}

// NewSimTask validates the request into a runnable task.
func NewSimTask(req SimRequest) (SimTask, error) {
	if _, err := req.Options(); err != nil {
		return SimTask{}, err
	}
	return SimTask{Req: req}, nil
}

// Kind implements engine.Task.
func (t SimTask) Kind() string { return KindSim }

// Check caps the instruction budget: a run cannot be cancelled, so an
// unbounded one would hold a server worker indefinitely.
func (t SimTask) Check(l Limits) error { return checkInstructions(t.Req.Instructions, l) }

// CanonicalHash digests the request verbatim: every field is
// result-defining (zero values are the reference defaults).
func (t SimTask) CanonicalHash() string { return hashJSON(KindSim, t.Req) }

// Run implements engine.Task.
func (t SimTask) Run(ctx context.Context) (any, error) {
	opts, err := t.Req.Options()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(opts)
	if err != nil {
		return nil, err
	}
	return SimResponse{
		Benchmark:     t.Req.Benchmark,
		Mode:          opts.Mode.String(),
		Scheme:        opts.Scheme.String(),
		Victim:        opts.Victim.String(),
		Pfail:         t.Req.Pfail,
		Seed:          t.Req.Seed,
		Instructions:  opts.Instructions,
		IPC:           res.IPC,
		ICapacity:     res.ICapacity,
		DCapacity:     res.DCapacity,
		VictimHitRate: res.VictimHitRate,
	}, nil
}
