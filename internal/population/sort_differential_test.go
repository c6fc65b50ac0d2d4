package population

// Differential suite for the linear-time severity ordering. The prober
// used to comparison-sort every die's latent population; sortBySeverity
// now buckets it by severity and finishes with an insertion pass. The
// comparison sort is frozen here as refSortBySeverity, and the two are
// held to the same (severity, cell) order over real draws — saturated
// (pflr >= 1, every cell faulty) dies included — and over crafted
// populations around the small-n cutoff, with duplicate severities and
// severities a hair below 1. CI runs this suite under -race
// (make diff-race).

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSortBySeverity is the historical ordering, frozen: a comparison
// sort by compareFaults.
func refSortBySeverity(flt []latentFault) {
	slices.SortFunc(flt, compareFaults)
}

// checkSorted runs sortBySeverity on a copy of flt through p and
// compares the result with the reference ordering.
func checkSorted(t *testing.T, p *prober, name string, flt []latentFault) {
	t.Helper()
	want := slices.Clone(flt)
	refSortBySeverity(want)
	p.flt = append(p.flt[:0], flt...)
	p.sortBySeverity()
	if !slices.Equal(p.flt, want) {
		t.Fatalf("%s (n=%d): linear ordering differs from the comparison sort", name, len(flt))
	}
}

func TestDifferentialSortDraws(t *testing.T) {
	saturated := 0
	for ti, spec := range diffSpecs(t) {
		p := newProber(spec)
		o := newOracleProber(spec)
		for d := 0; d < spec.Dies; d++ {
			p.draw(d)
			o.draw(d)
			want := make([]latentFault, len(o.cells))
			for i, c := range o.cells {
				want[i] = latentFault{sev: o.sev[i], cell: c}
			}
			refSortBySeverity(want)
			if !slices.Equal(p.flt, want) {
				t.Fatalf("trial %d die %d: drawn population (n=%d) ordered differently from the comparison sort",
					ti, d, len(want))
			}
			if p.pflr >= 1 {
				saturated++
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no saturated (pflr >= 1) die in the battery: the every-cell branch went untested")
	}
}

func TestDifferentialSortCrafted(t *testing.T) {
	p := newProber(FleetSpec{}.WithDefaults())
	rng := rand.New(rand.NewSource(5))
	belowOne := math.Nextafter(1, 0)
	// draw appends in increasing cell order; the shuffled variants
	// check the ordering does not lean on that.
	population := func(n int, sev func(i int) float64, shuffle bool) []latentFault {
		flt := make([]latentFault, n)
		for i := range flt {
			flt[i] = latentFault{sev: sev(i), cell: int32(3 * i)}
		}
		if shuffle {
			rng.Shuffle(n, func(i, j int) { flt[i], flt[j] = flt[j], flt[i] })
		}
		return flt
	}
	sizes := []int{0, 1, 2, sortCutoff - 1, sortCutoff, sortCutoff + 1, 4 * sortCutoff, 5000}
	kinds := []struct {
		name string
		sev  func(i int) float64
	}{
		{"uniform", func(int) float64 { return rng.Float64() }},
		{"duplicates", func(int) float64 { return float64(rng.Intn(5)) / 8 }},
		{"all equal", func(int) float64 { return 0.5 }},
		{"below one", func(i int) float64 { return belowOne - float64(rng.Intn(3))*0x1p-53 }},
		{"zero and below one", func(i int) float64 { return []float64{0, belowOne}[i%2] }},
		{"clustered", func(int) float64 { return 0.3 + rng.Float64()*1e-12 }},
	}
	for _, n := range sizes {
		for _, k := range kinds {
			for _, shuffle := range []bool{false, true} {
				name := k.name
				if shuffle {
					name += " shuffled"
				}
				checkSorted(t, p, name, population(n, k.sev, shuffle))
			}
		}
	}
}
