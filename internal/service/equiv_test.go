package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// kindRoute is one HTTP route serving a task kind. A POST route with an
// envelope key nests the request under it ({"sweep": ...}).
type kindRoute struct {
	method, path, envelope string
}

// kindRoutes maps every registered kind onto its own routes; kinds
// with none are reachable only through /v1/batch (and the CLIs).
var kindRoutes = map[string][]kindRoute{
	tasks.KindCapacity:       {{"GET", "/v1/capacity", ""}},
	tasks.KindOperatingPoint: {{"GET", "/v1/operating-point", ""}},
	tasks.KindOverhead:       {{"GET", "/v1/overhead", ""}},
	tasks.KindSim:            {{"POST", "/v1/sim", ""}},
	tasks.KindDVFSExplore:    {{"GET", "/v1/dvfs", ""}},
	tasks.KindDVFSRun:        nil,
	tasks.KindFleetSweep:     {{"GET", "/v1/fleet", ""}, {"POST", "/v1/fleet", "sweep"}},
	tasks.KindVccminPredict:  {{"POST", "/v1/fleet", "predict"}},
	tasks.KindSweep:          {{"POST", "/v1/sweeps", ""}},
	tasks.KindSweepCell:      nil,
	tasks.KindQuery:          {{"POST", "/v1/query", ""}},
}

// equivRow is one request, spelled as its kind's request struct, that
// every surface must treat alike.
type equivRow struct {
	name string
	kind string
	req  any
}

func fp(v float64) *float64 { return &v }

func equivSweep(mut func(*tasks.SweepRequest)) tasks.SweepRequest {
	r := tasks.SweepRequest{Pfails: []float64{0.001}, Schemes: []string{"baseline", "block"},
		Benchmarks: []string{"crafty"}, Trials: 1, Instructions: 2000, BaseSeed: 3}
	if mut != nil {
		mut(&r)
	}
	return r
}

// equivBad is the bad-input corpus: each row must be rejected by every
// surface with one message. The rows marked "bypass" were answered 200
// by /v1/batch while their own route answered 400, when the limits and
// the negative-value checks lived in the HTTP handlers.
var equivBad = []equivRow{
	{"bypass fleet rows over limit", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 10_001, IncludeDies: true}},
	{"bypass predict sample over limit", tasks.KindVccminPredict, tasks.PredictRequest{Dies: 3000, Sample: 2_001}},
	{"bypass capacity negative seed", tasks.KindCapacity, tasks.CapacityRequest{Seed: -1}},
	{"bypass capacity negative trials", tasks.KindCapacity, tasks.CapacityRequest{Trials: -1}},
	{"bypass capacity negative workers", tasks.KindCapacity, tasks.CapacityRequest{Workers: -1}},
	{"bypass fleet negative seed", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 16, Seed: -1}},
	{"bypass fleet negative workers", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 16, Workers: -1}},
	{"bypass dvfs-explore negative seed", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Seed: -1, Scale: 2000}},

	{"capacity pfail out of range", tasks.KindCapacity, tasks.CapacityRequest{Pfail: fp(2)}},
	{"capacity bad geometry", tasks.KindCapacity, tasks.CapacityRequest{Geometry: "banana"}},
	{"capacity trials over cap", tasks.KindCapacity, tasks.CapacityRequest{Trials: 10_001}},
	{"operating-point pfail zero", tasks.KindOperatingPoint, tasks.OperatingPointRequest{Pfail: fp(0)}},
	{"operating-point unreachable floor", tasks.KindOperatingPoint, tasks.OperatingPointRequest{MinPerformance: fp(2)}},
	{"sim instructions over limit", tasks.KindSim, tasks.SimRequest{Benchmark: "crafty", Instructions: 2_000_001}},
	{"sim no benchmark", tasks.KindSim, tasks.SimRequest{Instructions: 2000}},
	{"sim bad scheme", tasks.KindSim, tasks.SimRequest{Benchmark: "crafty", Scheme: "nope"}},
	{"dvfs-explore scale over limit", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Scale: 500_001}},
	{"dvfs-explore negative scale", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Scale: -5}},
	{"dvfs-explore grid over limit", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Scale: 2000,
		Workloads: []string{"compute-memory-swing", "bursty-server", "cache-pressure-ramp", "steady-compute"},
		Schemes:   []string{"block", "word", "inc-word", "bitfix"},
		Policies:  []string{"static-high", "static-low", "oracle", "reactive", "interval"}}},
	{"dvfs-explore unschedulable policy", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Scale: 2000, Policies: []string{"none"}}},
	{"dvfs-run scale over limit", tasks.KindDVFSRun, tasks.DVFSRunRequest{Workload: "bursty-server", Policy: "oracle", Scale: 500_001}},
	{"dvfs-run unknown workload", tasks.KindDVFSRun, tasks.DVFSRunRequest{Workload: "nope", Policy: "oracle"}},
	{"fleet dies over limit", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 200_001}},
	{"fleet negative dies", tasks.KindFleetSweep, tasks.FleetRequest{Dies: -10}},
	{"fleet negative dies_per_wafer", tasks.KindFleetSweep, tasks.FleetRequest{DiesPerWafer: -1}},
	{"fleet first negative in struct order", tasks.KindFleetSweep, tasks.FleetRequest{Dies: -1, VSteps: -2, Seed: -1}},
	{"fleet bad scheme", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 16, Schemes: []string{"bogus"}}},
	{"predict dies over limit", tasks.KindVccminPredict, tasks.PredictRequest{Dies: 200_001}},
	{"predict k out of range", tasks.KindVccminPredict, tasks.PredictRequest{Dies: 16, K: 61}},
	{"sweep grid over limit", tasks.KindSweep, equivSweep(func(r *tasks.SweepRequest) {
		r.Pfails = make([]float64, 2049)
		for i := range r.Pfails {
			r.Pfails[i] = 1e-4 + float64(i)*1e-7
		}
	})},
	{"sweep instructions over limit", tasks.KindSweep, equivSweep(func(r *tasks.SweepRequest) { r.Instructions = 2_000_001 })},
	{"sweep bad scheme", tasks.KindSweep, equivSweep(func(r *tasks.SweepRequest) { r.Schemes = []string{"nope"} })},
	{"sweep-cell instructions over limit", tasks.KindSweepCell, tasks.SweepCellRequest{
		SweepRequest: equivSweep(func(r *tasks.SweepRequest) { r.Instructions = 2_000_001 })}},
	{"sweep-cell index out of grid", tasks.KindSweepCell, tasks.SweepCellRequest{SweepRequest: equivSweep(nil), Index: 2}},
	{"query instructions over limit", tasks.KindQuery, tasks.QueryRequest{
		Sweep: equivSweep(func(r *tasks.SweepRequest) { r.Instructions = 2_000_001 })}},
	{"query unknown metric", tasks.KindQuery, tasks.QueryRequest{Sweep: equivSweep(nil), Metrics: []string{"nope"}}},
}

// equivGood holds two valid requests per kind (the one overhead table
// has a single identity); every surface must accept each under one
// canonical hash.
var equivGood = []equivRow{
	{"capacity analytic", tasks.KindCapacity, tasks.CapacityRequest{Pfail: fp(0.002)}},
	{"capacity monte carlo", tasks.KindCapacity, tasks.CapacityRequest{Pfail: fp(0.001), Granularity: "set", Trials: 5, Seed: 3}},
	{"operating-point pfail", tasks.KindOperatingPoint, tasks.OperatingPointRequest{Pfail: fp(0.01)}},
	{"operating-point floor", tasks.KindOperatingPoint, tasks.OperatingPointRequest{MinPerformance: fp(0.5)}},
	{"overhead", tasks.KindOverhead, struct{}{}},
	{"sim block", tasks.KindSim, tasks.SimRequest{Benchmark: "crafty", Scheme: "block", Pfail: 0.001, Seed: 3, Instructions: 2000}},
	{"sim high mode", tasks.KindSim, tasks.SimRequest{Benchmark: "crafty", Mode: "high", Instructions: 2000}},
	{"dvfs-explore one cell", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Workloads: []string{"compute-memory-swing"},
		Schemes: []string{"block"}, Policies: []string{"static-high"}, Scale: 2000}},
	{"dvfs-explore switch economics", tasks.KindDVFSExplore, tasks.DVFSExploreRequest{Workloads: []string{"bursty-server"},
		Schemes: []string{"block"}, Policies: []string{"reactive"}, Seed: 5, Scale: 2000,
		SwitchPenalty: 100, Interval: 500, IPCThreshold: 0.5, IncludeRuns: true}},
	{"dvfs-run static", tasks.KindDVFSRun, tasks.DVFSRunRequest{Workload: "bursty-server", Policy: "static-high", Scale: 2000}},
	{"dvfs-run oracle", tasks.KindDVFSRun, tasks.DVFSRunRequest{Workload: "bursty-server", Policy: "oracle", Scale: 2000, Seed: 2}},
	{"fleet small", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 16, Seed: 7}},
	{"fleet rows and wide seed", tasks.KindFleetSweep, tasks.FleetRequest{Dies: 16, Schemes: []string{"block"},
		WaferSigma: fp(0.3), IncludeDies: true, Seed: 8589934593}},
	{"predict small", tasks.KindVccminPredict, tasks.PredictRequest{Dies: 16, K: 4, Sample: 4}},
	{"predict word", tasks.KindVccminPredict, tasks.PredictRequest{Dies: 32, Scheme: "word", Sample: 4, Seed: 3}},
	{"sweep tiny", tasks.KindSweep, equivSweep(nil)},
	{"sweep other seed", tasks.KindSweep, equivSweep(func(r *tasks.SweepRequest) { r.BaseSeed = 4 })},
	{"sweep-cell first", tasks.KindSweepCell, tasks.SweepCellRequest{SweepRequest: equivSweep(nil)}},
	{"sweep-cell second", tasks.KindSweepCell, tasks.SweepCellRequest{SweepRequest: equivSweep(nil), Index: 1}},
	{"query by scheme", tasks.KindQuery, tasks.QueryRequest{Sweep: equivSweep(func(r *tasks.SweepRequest) { r.BaseSeed = 5 }),
		GroupBy: []string{"scheme"}}},
	{"query filtered", tasks.KindQuery, tasks.QueryRequest{Sweep: equivSweep(func(r *tasks.SweepRequest) { r.BaseSeed = 5 }),
		Metrics: []string{"mean_ipc"}, Where: map[string]string{"scheme": "block-disable"}}},
}

// outcome is one surface's answer to a request: the rejection message,
// or the canonical hash (with the answer bytes when the surface
// returns them and X-Cache when it reports one).
type outcome struct {
	surface, err, hash, cache string
	body                      []byte
}

// TestEntrypointEquivalence runs every registered kind's requests
// through each surface that reaches it — its GET/POST routes, a
// /v1/batch item, and its constructor plus tasks.Check — and requires
// them to agree: a bad request is rejected everywhere with the same
// message, a good one accepted everywhere under the same canonical
// hash and with the same bytes.
func TestEntrypointEquivalence(t *testing.T) {
	_, ts := newTestServer(t)
	for _, kind := range engine.Kinds() {
		if _, ok := kindRoutes[kind]; !ok {
			t.Errorf("kind %q has no kindRoutes entry: add its routes (or nil) to the table", kind)
		}
	}
	for _, row := range equivBad {
		t.Run(row.name, func(t *testing.T) {
			outs := surfaces(t, ts.URL, row)
			for _, o := range outs {
				if o.err == "" {
					t.Errorf("%s accepted the request (hash %s)", o.surface, o.hash)
				} else if o.err != outs[0].err {
					t.Errorf("%s says %q, %s says %q", outs[0].surface, outs[0].err, o.surface, o.err)
				}
			}
		})
	}
	for _, row := range equivGood {
		t.Run(row.name, func(t *testing.T) {
			outs := surfaces(t, ts.URL, row)
			for _, o := range outs {
				if o.err != "" {
					t.Fatalf("%s rejected a good request: %s", o.surface, o.err)
				}
			}
			ctor, batch := outs[0], outs[1]
			if batch.hash != ctor.hash {
				t.Errorf("batch hash %s, constructor hash %s", batch.hash, ctor.hash)
			}
			// The batch computed and stored the answer, so a route that
			// returns answers must replay exactly those bytes from memory:
			// its task has the same canonical hash. The sweeps route
			// returns the job, whose id is the hash.
			for _, o := range outs[2:] {
				if o.hash != "" && o.hash != ctor.hash {
					t.Errorf("%s hash %s, constructor hash %s", o.surface, o.hash, ctor.hash)
				}
				if o.hash == "" && (o.cache != string(engine.SourceMemory) || !bytes.Equal(o.body, append(batch.body, '\n'))) {
					t.Errorf("%s (X-Cache %q) did not replay the batch's answer", o.surface, o.cache)
				}
			}
		})
	}
}

// surfaces answers row on every surface that reaches its kind:
// constructor plus tasks.Check first, then a /v1/batch item, then each
// of the kind's routes.
func surfaces(t *testing.T, base string, row equivRow) []outcome {
	t.Helper()
	kind, ok := tasks.LookupKind(row.kind)
	if !ok {
		t.Fatalf("unknown kind %q", row.kind)
	}
	req := reflect.New(kind.Request)
	req.Elem().Set(reflect.ValueOf(row.req))
	ctor := outcome{surface: "constructor"}
	task, err := kind.Build(req.Interface())
	if err == nil {
		err = tasks.Check(task, tasks.DefaultLimits())
	}
	if err != nil {
		ctor.err = err.Error()
	} else {
		ctor.hash = task.CanonicalHash()
	}

	var br BatchResponse
	if resp, raw := send(t, "POST", base+"/v1/batch", map[string]any{
		"requests": []any{map[string]any{"kind": row.kind, "params": row.req}},
	}); resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &br) != nil || len(br.Results) != 1 {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}
	r := br.Results[0]
	outs := []outcome{ctor, {surface: "batch", err: r.Error, hash: r.Hash, body: r.Value}}
	if r.Error != "" {
		outs[1].hash = ""
	}

	for _, rt := range kindRoutes[row.kind] {
		o := outcome{surface: rt.method + " " + rt.path}
		var resp *http.Response
		var raw []byte
		if rt.method == "GET" {
			resp, raw = send(t, "GET", base+rt.path+"?"+queryString(t, row.req), nil)
		} else if rt.envelope != "" {
			resp, raw = send(t, "POST", base+rt.path, map[string]any{rt.envelope: row.req})
		} else {
			resp, raw = send(t, "POST", base+rt.path, row.req)
		}
		switch {
		case resp.StatusCode == http.StatusBadRequest:
			var env errorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("%s: 400 without an envelope: %s", o.surface, raw)
			}
			o.err = env.Error.Message
		case rt.path == "/v1/sweeps" && (resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK):
			var acc SweepAccepted
			if err := json.Unmarshal(raw, &acc); err != nil {
				t.Fatal(err)
			}
			o.hash = acc.Job.ID
		case resp.StatusCode == http.StatusOK:
			o.body, o.cache = raw, resp.Header.Get("X-Cache")
		default:
			t.Fatalf("%s: status %d: %s", o.surface, resp.StatusCode, raw)
		}
		outs = append(outs, o)
	}
	return outs
}

// send issues one request (JSON-encoding body when it is not nil) and
// returns the response with its body read.
func send(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// queryString spells a request struct as the query string the GET
// binder reads: JSON field names, comma lists, 1/0 booleans.
func queryString(t *testing.T, req any) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	q := url.Values{}
	for k, v := range m {
		switch v := v.(type) {
		case []any:
			parts := make([]string, len(v))
			for i, p := range v {
				parts[i] = p.(string)
			}
			q.Set(k, strings.Join(parts, ","))
		case bool:
			q.Set(k, map[bool]string{true: "1", false: "0"}[v])
		case json.Number:
			q.Set(k, v.String())
		case string:
			q.Set(k, v)
		default:
			t.Fatalf("field %s: %T has no query spelling", k, v)
		}
	}
	return q.Encode()
}
