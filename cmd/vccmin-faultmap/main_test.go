package main

import (
	"context"
	"reflect"
	"testing"

	"vccmin"
	"vccmin/internal/experiments"
	"vccmin/internal/tasks"
)

// TestMonteCarloMatchesCapacityRoute: the -trials summary draws on
// /v1/capacity's trial seeds, so its block-disable mean is the route's
// measured_capacity bit for bit.
func TestMonteCarloMatchesCapacityRoute(t *testing.T) {
	g := experiments.ReferenceGeometry()
	const (
		pfail  = 1e-3
		trials = 50
	)
	for _, seed := range []int64{1, 7} {
		p := pfail
		task, err := tasks.NewCapacityTask(tasks.CapacityRequest{Pfail: &p, Trials: trials, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out, err := task.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		resp := out.(tasks.CapacityResponse)
		got := monteCarlo(g, pfail, seed, 1, trials).Capacity.Mean
		if got != *resp.MeasuredCapacity {
			t.Errorf("seed %d: faultmap mean %v, /v1/capacity measured_capacity %v", seed, got, *resp.MeasuredCapacity)
		}
	}
}

// TestDrawMatchesFacade: the single map at -seed S is the library's
// NewFaultMap at S.
func TestDrawMatchesFacade(t *testing.T) {
	g := experiments.ReferenceGeometry()
	for _, seed := range []int64{1, 42} {
		if got, want := draw(g, 1e-3, seed, 1), vccmin.NewFaultMap(g, 1e-3, seed); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: faultmap draw differs from vccmin.NewFaultMap", seed)
		}
	}
}
