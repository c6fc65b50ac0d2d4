package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/dvfs"
	"vccmin/internal/geom"
	"vccmin/internal/prob"
	"vccmin/internal/sim"
	"vccmin/internal/sweep"
)

// SweepRequest is the JSON form of a sweep.Spec grid (the POST
// /v1/sweeps body and the sweep task parameters): the enum axes spelled
// as CLI-style strings. Empty axes take the engine's reference defaults.
type SweepRequest struct {
	Pfails        []float64 `json:"pfails"`
	Geometries    []string  `json:"geometries"`
	Schemes       []string  `json:"schemes"`
	Victims       []string  `json:"victims"`
	Granularities []string  `json:"granularities"`
	Policies      []string  `json:"policies"`
	DVFSWorkloads []string  `json:"dvfs_workloads"`
	Benchmarks    []string  `json:"benchmarks"`
	Trials        int       `json:"trials"`
	Instructions  int       `json:"instructions"`
	BaseSeed      int64     `json:"base_seed"`
	Workers       int       `json:"workers"`
	ShardIndex    int       `json:"shard_index,omitempty"`
	ShardCount    int       `json:"shard_count,omitempty"`
}

// Spec converts the request into the sweep engine's spec form.
func (r SweepRequest) Spec() (sweep.Spec, error) {
	spec := sweep.Spec{
		Pfails:        r.Pfails,
		DVFSWorkloads: r.DVFSWorkloads,
		Benchmarks:    r.Benchmarks,
		Trials:        r.Trials,
		Instructions:  r.Instructions,
		BaseSeed:      r.BaseSeed,
		Workers:       r.Workers,
		ShardIndex:    r.ShardIndex,
		ShardCount:    r.ShardCount,
	}
	for _, g := range r.Geometries {
		gg, err := geom.Parse(g)
		if err != nil {
			return spec, err
		}
		spec.Geometries = append(spec.Geometries, gg)
	}
	for _, v := range r.Schemes {
		sc, err := sim.ParseScheme(v)
		if err != nil {
			return spec, err
		}
		spec.Schemes = append(spec.Schemes, sc)
	}
	for _, v := range r.Victims {
		vk, err := sim.ParseVictim(v)
		if err != nil {
			return spec, err
		}
		spec.Victims = append(spec.Victims, vk)
	}
	for _, v := range r.Granularities {
		gr, err := prob.ParseGranularity(v)
		if err != nil {
			return spec, err
		}
		spec.Granularities = append(spec.Granularities, gr)
	}
	for _, v := range r.Policies {
		p, err := dvfs.ParsePolicy(v)
		if err != nil {
			return spec, err
		}
		spec.Policies = append(spec.Policies, p)
	}
	return spec, nil
}

// SweepRunResponse is a whole sweep execution's result: the rows this
// spec's shard owns, in cell order, plus the per-axis summary.
type SweepRunResponse struct {
	Hash       string              `json:"hash"`
	Stream     string              `json:"stream"`
	TotalCells int                 `json:"total_cells"`
	ShardCells int                 `json:"shard_cells"`
	Computed   int                 `json:"computed"`
	Rows       []sweep.Row         `json:"rows"`
	Summary    []sweep.AxisSummary `json:"summary"`
}

// SweepRunTask evaluates a full sweep grid (or its shard's slice)
// synchronously. The async job path keeps its own streaming
// checkpoint/resume machinery; this task is the engine-store form the
// CLIs and POST /v1/batch share.
type SweepRunTask struct {
	Spec sweep.Spec // defaulted and checked by the constructor
}

// NewSweepRunTask validates the request into a runnable task.
func NewSweepRunTask(req SweepRequest) (SweepRunTask, error) {
	spec, err := req.Spec()
	if err != nil {
		return SweepRunTask{}, err
	}
	spec = spec.WithDefaults()
	if err := spec.Check(); err != nil {
		return SweepRunTask{}, err
	}
	return SweepRunTask{Spec: spec}, nil
}

// Kind implements engine.Task.
func (t SweepRunTask) Kind() string { return KindSweep }

// CanonicalHash is the sweep spec's own canonical hash — the same
// identity the async job manager dedups on.
func (t SweepRunTask) CanonicalHash() string { return t.Spec.CanonicalHash() }

// Check bounds the grid and the per-cell instruction budget.
func (t SweepRunTask) Check(l Limits) error { return checkGrid(t.Spec, l) }

// checkGrid bounds a sweep-shaped task: the grid it evaluates and each
// cell's instruction budget.
func checkGrid(spec sweep.Spec, l Limits) error {
	if n := len(spec.Cells()); n > l.GridCells {
		return fmt.Errorf("grid has %d cells, limit %d", n, l.GridCells)
	}
	return checkInstructions(spec.Instructions, l)
}

// Run implements engine.Task.
func (t SweepRunTask) Run(ctx context.Context) (any, error) {
	res, err := sweep.Run(t.Spec, sweep.RunOptions{Context: ctx})
	if err != nil {
		return nil, err
	}
	rows := res.Rows
	if rows == nil {
		rows = []sweep.Row{}
	}
	return SweepRunResponse{
		Hash:       t.Spec.CanonicalHash(),
		Stream:     sweep.StreamVersion,
		TotalCells: res.TotalCells,
		ShardCells: res.ShardCells,
		Computed:   res.Computed,
		Rows:       rows,
		Summary:    res.Summary,
	}, nil
}

// SweepCellRequest addresses one cell of a sweep grid by its
// shard-independent index.
type SweepCellRequest struct {
	SweepRequest
	Index int `json:"index"`
}

// SweepCellTask evaluates exactly one grid cell; the row is
// byte-identical to the same cell's line in a full sweep.
type SweepCellTask struct {
	Spec  sweep.Spec
	Cell  sweep.Cell
	index int
}

// NewSweepCellTask validates the request into a runnable task.
func NewSweepCellTask(req SweepCellRequest) (SweepCellTask, error) {
	spec, err := req.SweepRequest.Spec()
	if err != nil {
		return SweepCellTask{}, err
	}
	spec = spec.WithDefaults()
	if err := spec.Check(); err != nil {
		return SweepCellTask{}, err
	}
	cells := spec.Cells()
	if req.Index < 0 || req.Index >= len(cells) {
		return SweepCellTask{}, fmt.Errorf("cell index %d out of the grid's [0,%d)", req.Index, len(cells))
	}
	return SweepCellTask{Spec: spec, Cell: cells[req.Index], index: req.Index}, nil
}

// Kind implements engine.Task.
func (t SweepCellTask) Kind() string { return KindSweepCell }

// CanonicalHash scopes the cell under its spec's identity: the same
// coordinates in a different grid are a different result (trials,
// benchmarks and the base seed all flow into the row).
func (t SweepCellTask) CanonicalHash() string {
	return hashJSON(KindSweepCell, struct {
		Spec  string `json:"spec"`
		Index int    `json:"index"`
	}{Spec: t.Spec.CanonicalHash(), Index: t.index})
}

// Check bounds the grid and the cell's instruction budget.
func (t SweepCellTask) Check(l Limits) error { return checkGrid(t.Spec, l) }

// Run implements engine.Task.
func (t SweepCellTask) Run(ctx context.Context) (any, error) {
	return t.Spec.EvaluateCell(t.Cell)
}
