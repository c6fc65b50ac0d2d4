// Package tasks defines the concrete compute kinds of the repository as
// engine tasks: the Section IV capacity analysis, the Fig. 1
// operating-point model, the Table I overhead accounting, single
// simulations, sweep runs and individual sweep cells, the phase-aware
// DVFS scheduler (single runs and Pareto explorations), the
// fleet-scale population layer (fleet sweeps and Vcc-min prediction
// studies), and colstore aggregation queries over sweep result sets.
//
// Each kind is a request struct (the JSON shape shared by the HTTP
// handlers, POST /v1/batch and the CLIs), a constructor that validates
// it into a Task, a Check(Limits) method bounding the work a server
// admits, and a response struct whose marshalled bytes are the
// engine's stored representation. Because every surface constructs the
// same task types, a result computed through any entrypoint — server,
// CLI or batch — is byte-identical and reusable by all of them.
//
// The package registers every kind with the engine registry at init
// time, so importing it is what makes engine.DecodeTask and
// engine.RunBatch able to answer heterogeneous requests.
package tasks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"vccmin/internal/engine"
)

// Task kinds, as spelled in batch requests and the stats.
const (
	KindCapacity       = "capacity"
	KindOperatingPoint = "operating-point"
	KindOverhead       = "overhead"
	KindSim            = "sim"
	KindSweep          = "sweep"
	KindSweepCell      = "sweep-cell"
	KindDVFSRun        = "dvfs-run"
	KindDVFSExplore    = "dvfs-explore"
	KindFleetSweep     = "fleet-sweep"
	KindVccminPredict  = "vccmin-predict"
	KindQuery          = "query"
)

func init() {
	register(KindCapacity, NewCapacityTask)
	register(KindOperatingPoint, NewOperatingPointTask)
	register(KindOverhead, func(struct{}) (OverheadTask, error) { return OverheadTask{}, nil })
	register(KindSim, NewSimTask)
	register(KindSweep, NewSweepRunTask)
	register(KindSweepCell, NewSweepCellTask)
	register(KindDVFSRun, NewDVFSRunTask)
	register(KindDVFSExplore, NewDVFSExploreTask)
	register(KindFleetSweep, NewFleetTask)
	register(KindVccminPredict, NewPredictTask)
	register(KindQuery, NewQueryTask)
}

// Kind is one registered task kind's request shape and constructor —
// what every surface binding a request (HTTP query strings and bodies,
// batch items) needs to turn it into a task.
type Kind struct {
	Request reflect.Type                       // the request struct
	Build   func(req any) (engine.Task, error) // req is a *Request
}

var kinds = map[string]Kind{}

// LookupKind returns the registered kind with the given name.
func LookupKind(name string) (Kind, bool) {
	k, ok := kinds[name]
	return k, ok
}

// register records a kind and installs its engine decoder, which
// rejects unknown fields so a mistyped batch parameter fails loudly
// instead of silently taking a default.
func register[R any, T engine.Task](name string, build func(R) (T, error)) {
	k := Kind{Request: reflect.TypeFor[R](), Build: func(req any) (engine.Task, error) {
		t, err := build(*req.(*R))
		if err != nil {
			return nil, err
		}
		return t, nil
	}}
	kinds[name] = k
	engine.RegisterKind(name, func(params json.RawMessage) (engine.Task, error) {
		req := new(R)
		dec := json.NewDecoder(bytes.NewReader(params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return nil, fmt.Errorf("bad parameters: %w", err)
		}
		return k.Build(req)
	})
}

// Limits bounds the work one request may ask of a server. They apply
// to every serving surface — each route and each /v1/batch item —
// through Check; the CLIs run locally and take no limits, so
// vccmin-fleet can still run fleets of any size.
type Limits struct {
	GridCells     int // sweep grid cells (sweep, sweep-cell, query)
	DVFSCells     int // DVFS explorer workload × scheme × policy cells
	DVFSScale     int // DVFS per-workload instruction budget
	Dies          int // fleet size (fleet-sweep, vccmin-predict)
	DieRows       int // largest fleet that may ask for per-die rows
	PredictSample int // dies one prediction study measures
	Instructions  int // simulated instructions per run (sim, sweep cells)
}

// DefaultLimits are the serving limits vccmin-serve runs with; its
// -max-grid flag overrides GridCells.
func DefaultLimits() Limits {
	return Limits{
		GridCells:     4096,
		DVFSCells:     64,
		DVFSScale:     500_000,
		Dies:          200_000,
		DieRows:       10_000,
		PredictSample: 2_000,
		Instructions:  2_000_000,
	}
}

// Check applies the limits to a constructed task. Every kind in this
// package has a Check(Limits) method; other tasks pass.
func Check(t engine.Task, l Limits) error {
	if c, ok := t.(interface{ Check(Limits) error }); ok {
		return c.Check(l)
	}
	return nil
}

func checkInstructions(n int, l Limits) error {
	if n > l.Instructions {
		return fmt.Errorf("instructions %d exceeds limit %d", n, l.Instructions)
	}
	return nil
}

// named is one integer request field, for nonNegative.
type named struct {
	name string
	v    int64
}

// nonNegative rejects the first negative field. Callers list fields in
// request-struct order, so a request with several bad fields gets one
// fixed message from every surface.
func nonNegative(fields ...named) error {
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("%s %d negative", f.name, f.v)
		}
	}
	return nil
}

// hashJSON digests a kind-prefixed canonical (defaulted, scheduling
// knobs zeroed) request into the content address its results live
// under. Requests that normalize equal share bytes in every tier.
func hashJSON(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Request structs are plain data; a marshal failure is a
		// programming error, not an input error.
		panic(fmt.Sprintf("tasks: hashing %s request: %v", kind, err))
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'|'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:12])
}
