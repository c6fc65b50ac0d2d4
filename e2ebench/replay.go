package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
)

// replay is the warm path: a universe of 4× the memory tier's entries,
// computed once at set-up, then picked uniformly. Answers come from the
// memory tier (≈¼) or the disk tier (≈¾) and never compute.
type replay struct {
	universe []Req
	bodies   [][]byte // the set-up answers every replay must equal
}

// replayUniverseFactor sizes the universe against the memory tier.
const replayUniverseFactor = 4

// replayChecked is how many set-up answers are compared with a direct
// run of their task; the window then compares every answer with these
// set-up bytes.
const replayChecked = 64

func (l *replay) setup(b *bench) error {
	st, err := b.srv.stats(b.hc)
	if err != nil {
		return err
	}
	n := replayUniverseFactor * st.Cache.Max
	if l.universe, err = Universe(b.seed, n); err != nil {
		return err
	}
	l.bodies = make([][]byte, n)
	err = b.parallel(n, func(c *client, i int) error {
		a := c.send(l.universe[i])
		if err := expect(a, 200, "miss"); err != nil {
			return fmt.Errorf("computing universe entry %d: %w", i, err)
		}
		l.bodies[i] = a.body
		return nil
	})
	if err != nil {
		return err
	}
	for k := uint64(0); k < replayChecked; k++ {
		i := Pick(b.seed, labelWarmup, math.MaxUint32+k, n)
		if err := checkDirect(l.universe[i], sha256.Sum256(l.bodies[i])); err != nil {
			return err
		}
	}
	// Warm-up: one pass of replays over the same tiers the window uses.
	return b.parallel(n/2, func(c *client, i int) error {
		j := Pick(b.seed, labelWarmup, uint64(i), n)
		a := c.send(l.universe[j])
		if err := expect(a, 200, ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
}

func (l *replay) op(c *client, i uint64) {
	j := Pick(c.b.seed, labelMeasure, i, len(l.universe))
	q := l.universe[j]
	a := c.send(q)
	ok := expect(a, 200, "") == nil && (a.cache == "hit" || a.cache == "disk") && bytes.Equal(a.body, l.bodies[j])
	c.record(q, a, ok)
	if c.traced && i%61 == 0 && len(c.traces) < 64 {
		c.traces = append(c.traces, tracedReq{q: q, span: a.span, sum: sha256.Sum256(a.body)})
	}
}

// check: every answer was compared inline; here the workload's claims.
// After set-up nothing may compute, and uniform picks over 4× the
// memory tier should find ≈¼ in memory.
func (l *replay) check(b *bench, w *window, r *report) {
	var hit, total uint64
	for kind, k := range w.tally() {
		if k.Misses+k.InflightWaits != 0 {
			r.fail("replay computed %d %s answers after set-up", k.Misses+k.InflightWaits, kind)
		}
		hit += k.Hits
		total += k.Hits + k.DiskHits + k.Misses + k.InflightWaits
	}
	if total > 0 {
		if f := float64(hit) / float64(total); math.Abs(f-1.0/replayUniverseFactor) > 0.05 {
			r.note("replay memory-hit fraction %.4f is not within 0.05 of %.2f", f, 1.0/replayUniverseFactor)
		}
	}
}

func (l *replay) report(w *window, r *report) {}

func (l *replay) decompose(w *window, d *decomposer) error {
	return decomposeTraces(w, d, 16)
}

func (l *replay) digest(seed int64) string {
	u, err := Universe(seed, len(l.universe))
	if err != nil {
		return "error: " + err.Error()
	}
	return StreamDigest("replay", seed, u)
}

// decomposeTraces replays up to perKind distinct traced requests of
// each task kind through the layers.
func decomposeTraces(w *window, d *decomposer, perKind int) error {
	perKindSeen := make(map[string]int)
	done := make(map[string]bool)
	for _, c := range w.clients {
		for _, t := range c.traces {
			key, err := t.q.Key()
			if err != nil {
				return err
			}
			if done[key] || perKindSeen[t.q.Kind] >= perKind {
				continue
			}
			done[key] = true
			perKindSeen[t.q.Kind]++
			task, build, err := d.build(t.span, t.q)
			if err != nil {
				return err
			}
			if err := d.task(t.span, task, build, t.sum); err != nil {
				return err
			}
		}
	}
	return nil
}
