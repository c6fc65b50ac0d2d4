package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"vccmin/internal/colstore"
	"vccmin/internal/engine"
	"vccmin/internal/service"
	"vccmin/internal/sweep"
	"vccmin/internal/tasks"
)

// sweepStudy is the batch path: each client posts a sweep, follows its
// SSE stream to the done event, then asks 8 group-by queries of the
// finished job (the first one folds the checkpoint into colstore
// shards).
type sweepStudy struct{}

// study is one client loop's record.
type study struct {
	sr      tasks.SweepRequest
	post    answer
	id      string
	stream  sseStream
	snap    service.JobSnapshot
	queries []Req
	answers []answer

	// Digests of the streamed rows and of each query's answer: what the
	// checks after the window compare, kept instead of the bytes.
	rowsSum [32]byte
	sums    [][32]byte
}

// compact replaces the study's bytes by their digests.
func (s *study) compact() *study {
	s.rowsSum = sha256.Sum256(s.stream.rows)
	s.stream.rows = nil
	for k := range s.answers {
		s.sums = append(s.sums, sha256.Sum256(s.answers[k].body))
		s.answers[k].body = nil
	}
	return s
}

func (l *sweepStudy) setup(b *bench) error {
	// Warm-up: three studies per client from the warm-up stream.
	return b.parallel(3*b.clients, func(c *client, i int) error {
		s, err := c.runStudy(StudySweep(b.seed, labelWarmup, uint64(i)))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for k, a := range s.answers {
			if err := expect(a, 200, "miss"); err != nil {
				return fmt.Errorf("warm-up query %d: %w", k, err)
			}
		}
		return nil
	})
}

// runStudy posts sr, follows the job's stream to its terminal event and
// asks the study's queries. It returns the study with every answer it
// got, or an error once a step fails and the rest cannot run.
func (c *client) runStudy(sr tasks.SweepRequest) (*study, error) {
	s := &study{sr: sr}
	s.post = c.send(postReq("", "/v1/sweeps", sr, nil))
	if err := expect(s.post, 202, ""); err != nil {
		return s, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	var acc service.SweepAccepted
	if err := json.Unmarshal(s.post.body, &acc); err != nil {
		return s, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	s.id = acc.Job.ID
	s.stream = c.stream(s.id)
	if s.stream.err != nil {
		return s, fmt.Errorf("stream: %w", s.stream.err)
	}
	if s.stream.event != "done" {
		return s, fmt.Errorf("stream ended with %q, status %d", s.stream.event, s.stream.status)
	}
	if err := json.Unmarshal(s.stream.snapshot, &s.snap); err != nil {
		return s, fmt.Errorf("done event: %w", err)
	}
	if cells, _ := StudyCells(sr); s.stream.nrows != s.snap.TotalCells || s.snap.TotalCells != cells {
		return s, fmt.Errorf("stream delivered %d rows, job has %d cells, sweep has %d", s.stream.nrows, s.snap.TotalCells, cells)
	}
	s.queries = StudyQueries(sr)
	for _, q := range s.queries {
		s.answers = append(s.answers, c.send(q))
	}
	return s, nil
}

func (l *sweepStudy) op(c *client, i uint64) {
	s, err := c.runStudy(StudySweep(c.b.seed, labelMeasure, i))
	c.record(Req{}, s.post, s.post.status == 202)
	if s.id != "" {
		c.record(Req{}, s.stream.answer, err == nil)
	}
	for k, a := range s.answers {
		c.record(s.queries[k], a, expect(a, 200, "miss") == nil)
	}
	if err == nil {
		c.studies = append(c.studies, s.compact())
	}
}

// check compares each study's streamed rows with GET /rows and every
// query answer with the query task run directly over those rows.
func (l *sweepStudy) check(b *bench, w *window, r *report) {
	cc := newClient(b, buckets{})
	for _, c := range w.clients {
		for _, s := range c.studies {
			a := cc.send(Req{Method: "GET", Path: "/v1/sweeps/" + s.id + "/rows"})
			if err := expect(a, 200, ""); err != nil || sha256.Sum256(a.body) != s.rowsSum {
				c.failed++
				r.fail("sweep-study: job %s: streamed rows differ from /rows (%v)", s.id, err)
				continue
			}
			rows, err := sweep.ReadRows(bytes.NewReader(a.body))
			if err != nil {
				c.failed++
				r.fail("sweep-study: job %s rows: %v", s.id, err)
				continue
			}
			for k, q := range s.queries {
				if err := checkQuery(q, rows, s.sums[k]); err != nil {
					c.failed++
					r.fail("sweep-study: job %s query %d: %v", s.id, k, err)
				}
			}
		}
	}
}

// checkQuery compares a query answer, kept as its digest, with
// tasks.NewQueryTask(req).WithRows(rows) run directly.
func checkQuery(q Req, rows []sweep.Row, answer [32]byte) error {
	t, err := q.Task()
	if err != nil {
		return err
	}
	qt, err := t.(tasks.QueryTask).WithRows(rows)
	if err != nil {
		return err
	}
	return checkDirect(Req{Method: q.Method, Path: q.Path, build: func() (engine.Task, error) { return qt, nil }}, answer)
}

// report adds the sweep-study metrics: simulated work per second over
// the window, time to the first streamed row, and query latency.
func (l *sweepStudy) report(w *window, r *report) {
	var minstr float64
	var firstRow, query []float64
	for _, c := range w.clients {
		for _, s := range c.studies {
			_, instr := StudyCells(s.sr)
			minstr += instr / 1e6
			firstRow = append(firstRow, float64(s.stream.firstRow.Sub(s.post.start))/1e6)
			for _, a := range s.answers {
				query = append(query, a.ms())
			}
		}
	}
	r.addE2E(metric{name: "sim_minstr_per_s", value: minstr / w.wall.Seconds(), unit: "Minstr/s", n: len(firstRow),
		note: "cells x benchmarks x trials x instructions of finished jobs / wall time"})
	r.addE2E(pct("first_row_p50_ms", "ms", firstRow, 0.5, "POST /v1/sweeps sent -> first SSE row"))
	r.addE2E(pct("query_p50_ms", "ms", query, 0.5, "POST /v1/query on a finished job"))
	p99 := pct("query_p99_ms", "ms", query, 0.99, "first query per job includes the lazy fold")
	if p99.beyond < 10 {
		p99.note += "; fewer than 10 samples beyond p99"
	}
	r.addE2E(p99)
}

// jobMetrics reads the job lifecycle off the done snapshots: queue wait
// (created → started), run time (started → finished) and stream lag
// (finished → the client saw done). Windows without jobs report n=0.
func jobMetrics(w *window) []metric {
	s := samples{}
	for _, c := range w.clients {
		for _, st := range c.studies {
			if st.snap.StartedAt == nil || st.snap.FinishedAt == nil {
				continue
			}
			s.add("service.job_queue_ms", ms(st.snap.StartedAt.Sub(st.snap.CreatedAt)))
			s.add("service.job_run_ms", ms(st.snap.FinishedAt.Sub(*st.snap.StartedAt)))
			s.add("service.stream_lag_ms", ms(st.stream.end.Sub(*st.snap.FinishedAt)))
		}
	}
	return []metric{
		layerMedian(s, "service.job_queue_ms", "ms"),
		layerMedian(s, "service.job_run_ms", "ms"),
		layerMedian(s, "service.stream_lag_ms", "ms"),
	}
}

// studyDecomposed bounds how many traced studies are replayed through
// the sweep and colstore layers.
const studyDecomposed = 4

// decompose replays traced studies: the sweep's cells one by one, the
// whole sweep with a checkpoint file, the fold of that checkpoint, and
// each query both over the folded shards and as a task through the
// engine tiers.
func (l *sweepStudy) decompose(w *window, d *decomposer) error {
	n := 0
	for _, c := range w.clients {
		for _, s := range c.studies {
			if n == studyDecomposed {
				return nil
			}
			n++
			if err := d.study(s); err != nil {
				return fmt.Errorf("job %s: %w", s.id, err)
			}
		}
	}
	return nil
}

func (d *decomposer) study(s *study) error {
	parent := s.stream.span
	var spec sweep.Spec
	var err error
	b := d.tr.timed(parent, parent, "tasks.build", tasks.KindSweep, func() {
		if spec, err = s.sr.Spec(); err == nil {
			spec = spec.WithDefaults()
			if err = spec.Check(); err == nil {
				spec.CanonicalHash()
			}
		}
	})
	if err != nil {
		return err
	}
	d.out.add("tasks.build_us."+tasks.KindSweep, us(b.dur()))
	d.out.add("tasks.build_us", us(b.dur()))

	for _, cell := range spec.Cells() {
		sp := d.tr.timed(parent, parent, "sweep.cell", cell.Key(), func() { _, err = spec.EvaluateCell(cell) })
		if err != nil {
			return err
		}
		d.out.add("sweep.cell_ms", ms(sp.dur()))
	}

	ckpt := filepath.Join(d.dir, s.id+".rows.jsonl")
	f, err := os.Create(ckpt)
	if err != nil {
		return err
	}
	sp := d.tr.timed(parent, parent, "sweep.run", "", func() { _, err = sweep.Run(spec, sweep.RunOptions{Out: f}) })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	d.out.add("sweep.run_ms", ms(sp.dur()))
	got, err := os.ReadFile(ckpt)
	if err != nil {
		return err
	}
	if sha256.Sum256(got) != s.rowsSum {
		return fmt.Errorf("sweep.Run checkpoint differs from the streamed rows")
	}

	shards := filepath.Join(d.dir, s.id+".col")
	var nrows int
	sp = d.tr.timed(parent, parent, "colstore.fold", "", func() {
		nrows, err = colstore.FoldJSONL(ckpt, shards, colstore.DefaultShardRows)
	})
	if err != nil {
		return err
	}
	d.out.add("colstore.fold_ms", ms(sp.dur()))
	d.out.add("colstore.rows", float64(nrows))
	rows, err := sweep.ReadRows(bytes.NewReader(got))
	if err != nil {
		return err
	}

	for k, q := range s.queries {
		t, build, err := d.build(parent, q)
		if err != nil {
			return err
		}
		qt := t.(tasks.QueryTask)
		sp := d.tr.timed(parent, parent, "colstore.query", "", func() {
			var dir *colstore.Dir
			if dir, err = colstore.OpenDir(shards); err == nil {
				_, err = colstore.Query(dir, qt.Query)
			}
		})
		if err != nil {
			return err
		}
		d.out.add("colstore.query_us", us(sp.dur()))
		if qt, err = qt.WithRows(rows); err != nil {
			return err
		}
		if err := d.task(parent, qt, build, s.sums[k]); err != nil {
			return err
		}
	}
	return nil
}

func (l *sweepStudy) digest(seed int64) string { return StreamDigest("sweep-study", seed, nil) }
