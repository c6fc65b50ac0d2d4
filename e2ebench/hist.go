package main

import "math"

// Latency histogram bounds: log buckets of ratio histRatio from histMin
// ms up to 1000 s. A quantile read from it is exact to one bucket, 0.5%.
const (
	histMin   = 1e-3 // ms
	histRatio = 1.005
)

var histBuckets = int(math.Ceil(math.Log(1e6/histMin)/math.Log(histRatio))) + 1

// latHist counts request latencies in fixed memory. The benchmark's own
// records then do not grow with the number of requests, so the heap it
// measures does not depend on how fast the service answered.
type latHist struct {
	counts []uint32
	n      int
}

func newLatHist() *latHist { return &latHist{counts: make([]uint32, histBuckets)} }

func (h *latHist) add(ms float64) {
	k := 0
	if ms > histMin {
		k = min(int(math.Log(ms/histMin)/math.Log(histRatio)), histBuckets-1)
	}
	h.counts[k]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for k, c := range o.counts {
		h.counts[k] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile and the number of samples
// ranked above it. Within its bucket the value is interpolated
// geometrically by rank, as if the bucket's samples were spread evenly
// across it, so the result moves continuously with the data instead of
// snapping to a bucket boundary.
func (h *latHist) quantile(q float64) (v float64, beyond int) {
	if h.n == 0 {
		return 0, 0
	}
	rank := max(1, min(int(math.Ceil(q*float64(h.n))), h.n))
	seen := 0
	for k, c := range h.counts {
		if seen+int(c) >= rank {
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return histMin * math.Pow(histRatio, float64(k)+frac), h.n - rank
		}
		seen += int(c)
	}
	return 0, 0 // unreachable: the counts sum to n
}
