package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// TestMethodNotAllowed: every /v1 route must answer a wrong-method
// request with 405, an Allow header and the JSON error envelope —
// not the stdlib's bare text error and not a 404.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		method, path, wantAllow string
	}{
		{"POST", "/v1/healthz", "GET"},
		{"DELETE", "/v1/stats", "GET"},
		{"POST", "/v1/capacity", "GET"},
		{"PUT", "/v1/operating-point", "GET"},
		{"POST", "/v1/overhead", "GET"},
		{"POST", "/v1/dvfs", "GET"},
		{"GET", "/v1/sim", "POST"},
		{"GET", "/v1/batch", "POST"},
		{"DELETE", "/v1/sweeps", "POST, GET"},
		{"POST", "/v1/sweeps/some-id", "GET"},
		{"POST", "/v1/sweeps/some-id/rows", "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
			continue
		}
		if allow := resp.Header.Get("Allow"); allow != c.wantAllow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, allow, c.wantAllow)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != ErrCodeMethodNotAllowed {
			t.Errorf("%s %s: body %q is not the 405 envelope", c.method, c.path, body)
		}
	}
}

func TestStatsVersionAndEngineCounters(t *testing.T) {
	_, ts := newTestServer(t)
	// One computed capacity query, one replay.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/capacity?pfail=0.002")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Version == "" || !strings.HasPrefix(st.Version, "vccmin ") {
		t.Fatalf("stats version %q", st.Version)
	}
	ks, ok := st.Engine[tasks.KindCapacity]
	if !ok {
		t.Fatalf("no engine stats for %q: %+v", tasks.KindCapacity, st.Engine)
	}
	if ks.Misses != 1 || ks.Hits != 1 {
		t.Fatalf("capacity kind stats %+v, want 1 miss + 1 hit", ks)
	}
	if st.Cache.Max == 0 {
		t.Fatalf("cache section missing: %+v", st.Cache)
	}
}

// TestBatchEndpoint: heterogeneous kinds answered in order, intra-batch
// deduplication, per-item errors, and the grid gate.
func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	body := map[string]any{
		"requests": []map[string]any{
			{"kind": "capacity", "params": map[string]any{"pfail": 0.001}},
			{"kind": "operating-point", "params": map[string]any{"min_performance": 0.5}},
			{"kind": "overhead"},
			{"kind": "capacity", "params": map[string]any{"pfail": 0.001}}, // duplicate of [0]
			{"kind": "no-such-kind"},
			{"kind": "sim", "params": map[string]any{"benchmark": "nope", "instructions": 100}},
		},
	}
	var resp BatchResponse
	hr := postJSON(t, ts.URL+"/v1/batch", body, &resp)
	if hr.StatusCode != 200 || len(resp.Results) != 6 {
		t.Fatalf("batch: status %d, %d results", hr.StatusCode, len(resp.Results))
	}
	for i := 0; i < 4; i++ {
		if resp.Results[i].Error != "" {
			t.Fatalf("item %d failed: %s", i, resp.Results[i].Error)
		}
	}
	if resp.Results[0].Kind != "capacity" || resp.Results[1].Kind != "operating-point" {
		t.Fatalf("results out of order: %+v", resp.Results[:2])
	}
	if resp.Results[0].Hash != resp.Results[3].Hash ||
		string(resp.Results[0].Value) != string(resp.Results[3].Value) {
		t.Fatal("duplicate batch items must share hash and bytes")
	}
	if resp.Results[4].Error == "" || resp.Results[5].Error == "" {
		t.Fatalf("bad items must carry errors: %+v", resp.Results[4:])
	}

	// The capacity value must be byte-identical to the sync endpoint's.
	syncResp, err := http.Get(ts.URL + "/v1/capacity?pfail=0.001")
	if err != nil {
		t.Fatal(err)
	}
	syncBytes, _ := io.ReadAll(syncResp.Body)
	syncResp.Body.Close()
	if got := string(resp.Results[0].Value) + "\n"; got != string(syncBytes) {
		t.Fatalf("batch value differs from sync endpoint:\n%s\nvs\n%s", got, syncBytes)
	}
	if syncResp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("sync endpoint should replay the batch's stored result, X-Cache %q",
			syncResp.Header.Get("X-Cache"))
	}

	// Oversized batches and oversized grids are rejected.
	var env errorEnvelope
	many := make([]map[string]any, s.cfg.MaxBatchItems+1)
	for i := range many {
		many[i] = map[string]any{"kind": "overhead"}
	}
	if hr := postJSON(t, ts.URL+"/v1/batch", map[string]any{"requests": many}, &env); hr.StatusCode != 400 {
		t.Fatalf("oversized batch: status %d", hr.StatusCode)
	}
	var gridResp BatchResponse
	postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"requests": []map[string]any{
			{"kind": "sweep", "params": map[string]any{"pfails": manyPfails(s.cfg.MaxGridCells + 1)}},
			{"kind": "dvfs-explore", "params": map[string]any{"workloads": []string{"bursty-server"},
				"schemes": []string{"block"}, "policies": []string{"oracle"}, "scale": s.limits.DVFSScale + 1}},
			{"kind": "dvfs-run", "params": map[string]any{"workload": "bursty-server",
				"policy": "oracle", "scale": s.limits.DVFSScale + 1}},
		},
	}, &gridResp)
	for i, r := range gridResp.Results {
		if r.Error == "" || (!strings.Contains(r.Error, "limit") && !strings.Contains(r.Error, "scale")) {
			t.Fatalf("oversized item %d not gated: %+v", i, r)
		}
	}
}

// TestBatchSweepCellMatchesJobRows: a sweep-cell batch result must be
// byte-identical to the corresponding row of the async job's JSONL
// checkpoint — one compute engine, two surfaces.
func TestBatchSweepCellMatchesJobRows(t *testing.T) {
	_, ts := newTestServer(t)
	req := tinySpec()

	var acc SweepAccepted
	postJSON(t, ts.URL+"/v1/sweeps", req, &acc)
	snap := waitDone(t, ts.URL, acc.Job.ID)
	if snap.Status != JobDone {
		t.Fatalf("job failed: %+v", snap)
	}
	rowsResp, err := http.Get(ts.URL + "/v1/sweeps/" + acc.Job.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	rowsRaw, _ := io.ReadAll(rowsResp.Body)
	rowsResp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(rowsRaw), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("%d row lines, want 4", len(lines))
	}

	params, _ := json.Marshal(req)
	var cellParams map[string]any
	json.Unmarshal(params, &cellParams)
	cellParams["index"] = 2
	var batch BatchResponse
	postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"requests": []map[string]any{{"kind": "sweep-cell", "params": cellParams}},
	}, &batch)
	if batch.Results[0].Error != "" {
		t.Fatalf("sweep-cell: %s", batch.Results[0].Error)
	}
	if string(batch.Results[0].Value) != string(lines[2]) {
		t.Fatalf("sweep-cell bytes differ from the job row:\n%s\nvs\n%s",
			batch.Results[0].Value, lines[2])
	}
}

// TestDiskTierAcrossRestart is the acceptance path: a fresh server over
// the same data directory must serve previously computed sync results
// from the content-addressed disk store without recomputing.
func TestDiskTierAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const query = "/v1/dvfs?workloads=compute-memory-swing&schemes=block&policies=static-high&scale=4000"

	s1, err := New(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp1, err := http.Get(ts1.URL + query)
	if err != nil {
		t.Fatal(err)
	}
	body1, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first compute X-Cache %q", resp1.Header.Get("X-Cache"))
	}
	ts1.Close()
	s1.Close()

	s2, err := New(Config{DataDir: dir, Workers: 1}) // restart
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + query)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != string(engine.SourceDisk) {
		t.Fatalf("post-restart X-Cache %q, want %q", resp2.Header.Get("X-Cache"), engine.SourceDisk)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("disk tier replayed different bytes after restart")
	}
	if ks := s2.Engine().Stats()[tasks.KindDVFSExplore]; ks.Misses != 0 || ks.DiskHits != 1 {
		t.Fatalf("restart recomputed: %+v", ks)
	}
}

// TestConcurrentIdenticalRequestsSingleflight: concurrent identical HTTP
// requests must execute the underlying task exactly once (run under
// -race in CI).
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	s, ts := newTestServer(t)
	const callers = 8
	var wg sync.WaitGroup
	bodies := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/dvfs?workloads=bursty-server&schemes=block&policies=oracle&scale=4000")
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	if ks := s.Engine().Stats()[tasks.KindDVFSExplore]; ks.Misses != 1 {
		t.Fatalf("underlying task ran %d times for %d concurrent identical requests (stats %+v)",
			ks.Misses, callers, ks)
	}
}
