package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"vccmin/internal/tasks"
)

// TestFleetEndpoint runs a small fleet through GET and POST and checks
// the two surfaces agree byte-for-byte (same canonical task, same
// stored bytes).
func TestFleetEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var got tasks.FleetResponse
	resp := getJSON(t, ts.URL+"/v1/fleet?dies=64&schemes=block,word&seed=7&workers=2", &got)
	if resp.StatusCode != 200 {
		t.Fatalf("fleet: status %d", resp.StatusCode)
	}
	if got.Dies != 64 || got.Wafers != 1 || len(got.Schemes) != 2 {
		t.Fatalf("fleet response shape: %+v", got)
	}
	if len(got.Grid) != 33 {
		t.Fatalf("default grid should have 33 steps, got %d", len(got.Grid))
	}
	if got.DieRows != nil {
		t.Fatal("die rows present without include_dies")
	}
	for _, sy := range got.Schemes {
		if sy.Yield[0] < 0 || sy.Yield[0] > 1 {
			t.Fatalf("yield out of range: %+v", sy)
		}
	}

	var viaPost tasks.FleetResponse
	body := map[string]any{"sweep": map[string]any{"dies": 64, "schemes": []string{"block", "word"}, "seed": 7}}
	resp = postJSON(t, ts.URL+"/v1/fleet", body, &viaPost)
	if resp.StatusCode != 200 {
		t.Fatalf("fleet POST: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("POST of the identical fleet should hit the GET's cache entry, got %q", resp.Header.Get("X-Cache"))
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(viaPost)
	if string(a) != string(b) {
		t.Fatal("GET and POST fleet responses differ")
	}

	var rows tasks.FleetResponse
	getJSON(t, ts.URL+"/v1/fleet?dies=64&schemes=block,word&seed=7&include_dies=1", &rows)
	if len(rows.DieRows) != 64 {
		t.Fatalf("include_dies=1 should return 64 rows, got %d", len(rows.DieRows))
	}

	var pred tasks.PredictResponse
	resp = postJSON(t, ts.URL+"/v1/fleet",
		map[string]any{"predict": map[string]any{"dies": 64, "scheme": "block", "k": 4, "sample": 8, "seed": 7}}, &pred)
	if resp.StatusCode != 200 {
		t.Fatalf("predict POST: status %d", resp.StatusCode)
	}
	if pred.Max > pred.BracketBound {
		t.Fatalf("predict max error %v above bracket bound %v", pred.Max, pred.BracketBound)
	}
}

// TestQueryParamValidation is the table-driven bad-input sweep from the
// issue: every integer query parameter on the sync endpoints rejects
// malformed and negative values with a 400, and full-range int64 seeds
// are accepted (the former queryInt path rejected anything past 2^31-1
// on 32-bit builds' strconv.Atoi).
func TestQueryParamValidation(t *testing.T) {
	_, ts := newTestServer(t)

	bad := []struct {
		name string
		path string
	}{
		{"capacity negative trials", "/v1/capacity?trials=-1"},
		{"capacity negative seed", "/v1/capacity?seed=-4"},
		{"capacity negative workers", "/v1/capacity?workers=-2"},
		{"capacity malformed trials", "/v1/capacity?trials=x"},
		{"dvfs negative seed", "/v1/dvfs?policies=oracle&seed=-1"},
		{"dvfs negative runs", "/v1/dvfs?policies=oracle&runs=-1"},
		{"dvfs negative scale", "/v1/dvfs?policies=oracle&scale=-5"},
		{"dvfs malformed seed", "/v1/dvfs?seed=nope"},
		{"fleet negative dies", "/v1/fleet?dies=-10"},
		{"fleet negative seed", "/v1/fleet?seed=-10"},
		{"fleet negative vsteps", "/v1/fleet?vsteps=-3"},
		{"fleet negative workers", "/v1/fleet?workers=-1"},
		{"fleet negative include_dies", "/v1/fleet?include_dies=-1"},
		{"fleet malformed sigma", "/v1/fleet?wafer_sigma=abc"},
		{"fleet negative sigma", "/v1/fleet?dies=10&wafer_sigma=-0.5"},
		{"fleet oversized", "/v1/fleet?dies=300000"},
		{"fleet rows oversized", "/v1/fleet?dies=20000&include_dies=1"},
		{"fleet bad scheme", "/v1/fleet?schemes=bogus"},
		{"sweeps negative offset", "/v1/sweeps?offset=-1"},
		{"sweeps negative limit", "/v1/sweeps?limit=-1"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s = %d, want 400 (body %s)", tc.path, resp.StatusCode, b)
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(b, &env); err != nil || env.Error.Code == "" {
				t.Fatalf("GET %s: not an error envelope: %s", tc.path, b)
			}
		})
	}

	// A seed beyond 32 bits must round-trip, not truncate: the response
	// echoes the exact value.
	bigSeed := "8589934593" // 2^33 + 1
	var fleet tasks.FleetResponse
	resp := getJSON(t, ts.URL+"/v1/fleet?dies=16&seed="+bigSeed, &fleet)
	if resp.StatusCode != 200 {
		t.Fatalf("big seed rejected: %d", resp.StatusCode)
	}
	if fleet.Seed != 8589934593 {
		t.Fatalf("seed truncated: got %d", fleet.Seed)
	}
	var cap CapacityResponse
	resp = getJSON(t, ts.URL+"/v1/capacity?seed="+bigSeed+"&trials=5", &cap)
	if resp.StatusCode != 200 {
		t.Fatalf("capacity big seed rejected: %d", resp.StatusCode)
	}
}

// TestFleetPostValidation pins the POST envelope rules.
func TestFleetPostValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"empty":      `{}`,
		"both":       `{"sweep":{"dies":8},"predict":{"dies":8}}`,
		"unknown":    `{"swep":{"dies":8}}`,
		"bad scheme": `{"predict":{"dies":8,"scheme":"nope"}}`,
		"big sample": `{"predict":{"dies":100000,"sample":50000}}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
			}
		})
	}
}

// TestFleetErrorDeterministic: with several negative parameters the
// 400 names the first in request-struct order, every time — the
// parameters are checked in a fixed order, never by map iteration.
func TestFleetErrorDeterministic(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 50; i++ {
		var env errorEnvelope
		resp := getJSON(t, ts.URL+"/v1/fleet?dies=-1&seed=-1", &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Message != "dies -1 negative" {
			t.Fatalf("attempt %d: status %d message %q, want 400 %q", i, resp.StatusCode, env.Error.Message, "dies -1 negative")
		}
	}
}
