package main

import (
	"crypto/sha256"
	"fmt"
)

// cold is the compute path: every request is a new task (an equal mix
// of simulation, Monte Carlo capacity, fleet, Vcc-min prediction and
// DVFS exploration), so every answer is computed and written to the
// disk tier, and the memory tier never answers.
type cold struct{}

// coldSampleEvery picks the answers compared with a direct run of their
// task after the window: request i is checked when i is a multiple.
const coldSampleEvery = 16

// coldSample is one answer kept for the direct-run comparison.
type coldSample struct {
	q   Req
	sum [32]byte // sha256 of the body
}

func (l *cold) setup(b *bench) error {
	// Warm-up: ten requests of every kind from the warm-up stream,
	// whose seeds can never collide with the measured stream's.
	return b.parallel(10*len(ColdKinds), func(c *client, i int) error {
		a := c.send(ColdReq(b.seed, labelWarmup, uint64(i)))
		if err := expect(a, 200, "miss"); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
}

func (l *cold) op(c *client, i uint64) {
	q := ColdReq(c.b.seed, labelMeasure, i)
	a := c.send(q)
	c.record(q, a, expect(a, 200, "miss") == nil)
	if i%coldSampleEvery == 0 {
		c.cold = append(c.cold, coldSample{q: q, sum: sha256.Sum256(a.body)})
	}
	if c.traced && len(c.traces) < 8*len(ColdKinds) {
		c.traces = append(c.traces, tracedReq{q: q, span: a.span, sum: sha256.Sum256(a.body)})
	}
}

// check compares the sampled answers with direct runs of their tasks.
// The all-miss claim is checked per request (expect "miss") and again
// on the engine counters.
func (l *cold) check(b *bench, w *window, r *report) {
	for _, c := range w.clients {
		for _, s := range c.cold {
			if err := checkDirect(s.q, s.sum); err != nil {
				c.failed++
				r.fail("cold: %v", err)
			}
		}
	}
	for kind, k := range w.delta {
		if k.Hits+k.DiskHits+k.InflightWaits != 0 {
			r.fail("cold: %s answered %d times without computing", kind, k.Hits+k.DiskHits+k.InflightWaits)
		}
	}
}

func (l *cold) report(w *window, r *report) {}

func (l *cold) decompose(w *window, d *decomposer) error {
	return decomposeTraces(w, d, 8)
}

func (l *cold) digest(seed int64) string { return StreamDigest("cold", seed, nil) }
