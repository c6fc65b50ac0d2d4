package core

import (
	"math"
	"math/rand"
	"testing"

	"vccmin/internal/faults"
	"vccmin/internal/prob"
)

func TestBitFixCleanMapFits(t *testing.T) {
	m := faults.NewEmpty(refGeom, 32)
	res := EvaluateBitFix(m, ReferenceBitFix())
	if !res.Fit || res.FailedGroups != 0 {
		t.Errorf("clean map should fit: %+v", res)
	}
	if res.TotalGroups != refGeom.Blocks()*32 {
		t.Errorf("TotalGroups = %d, want %d (32 groups of 8 pairs per 512-bit line)",
			res.TotalGroups, refGeom.Blocks()*32)
	}
	if res.LowVoltageGeom.SizeBytes != 24*1024 || res.LowVoltageGeom.Ways != 6 {
		t.Errorf("low-voltage geometry = %v, want 24KB 6-way", res.LowVoltageGeom)
	}
}

func TestBitFixBoundary(t *testing.T) {
	cfg := ReferenceBitFix()
	m := faults.NewEmpty(refGeom, 32)
	// One faulty pair in group 0 of block 0: repairable.
	m.Blocks[0].PairMask[0] = 0b1
	m.Blocks[0].Cells = 1
	if res := EvaluateBitFix(m, cfg); !res.Fit {
		t.Error("one faulty pair per group must be repairable")
	}
	// Two faulty pairs in the same 8-pair group: whole-cache failure.
	m.Blocks[0].PairMask[0] = 0b11
	m.Blocks[0].Cells = 2
	res := EvaluateBitFix(m, cfg)
	if res.Fit || res.FailedGroups != 1 {
		t.Errorf("two pairs in one group must fail: %+v", res)
	}
	// Two faulty pairs in different groups: repairable again.
	m.Blocks[0].PairMask[0] = 1 | 1<<8
	if res := EvaluateBitFix(m, cfg); !res.Fit {
		t.Error("one pair per group across two groups must be repairable")
	}
}

func TestBitFixIgnoresTagFaults(t *testing.T) {
	m := faults.NewEmpty(refGeom, 32)
	for i := range m.Blocks {
		m.Blocks[i].TagFaulty = true
		m.Blocks[i].Cells = 1
	}
	if res := EvaluateBitFix(m, ReferenceBitFix()); !res.Fit {
		t.Error("bit-fix tag array is robust; tag faults must not fail the cache")
	}
}

func TestBitFixFailureRateMatchesAnalysis(t *testing.T) {
	// At pfail = 2e-4 the analytic whole-cache-failure probability is
	// measurable with modest trials.
	const pfail = 2e-4
	const trials = 200
	cfg := ReferenceBitFix()
	rng := rand.New(rand.NewSource(41))
	failures := 0
	for i := 0; i < trials; i++ {
		m := faults.GenerateMapSparse(refGeom, 32, pfail, rng.Int63())
		if !EvaluateBitFix(m, cfg).Fit {
			failures++
		}
	}
	want := prob.BitFixWholeCacheFailProb(refGeom.Blocks(), refGeom.DataBits(), cfg.PairsPerGroup, cfg.RepairsPerGroup, pfail)
	got := float64(failures) / trials
	sd := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 4*sd+0.02 {
		t.Errorf("MC bit-fix failure rate = %v, analysis predicts %v", got, want)
	}
}

func TestBitFixResultString(t *testing.T) {
	m := faults.NewEmpty(refGeom, 32)
	s := EvaluateBitFix(m, ReferenceBitFix()).String()
	if s == "" {
		t.Error("empty String()")
	}
}
