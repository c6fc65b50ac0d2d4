package service

import (
	"net/url"
	"reflect"
	"testing"
)

// TestBindQuery pins the binder's field rules on one request struct:
// absent and empty parameters leave fields (and route defaults) alone,
// pointers become non-nil only when given, int64 parses at full width,
// lists split on commas, booleans take a non-negative integer, and the
// first bad parameter in struct order is the one reported.
func TestBindQuery(t *testing.T) {
	type req struct {
		Count int      `json:"count,omitempty"`
		Seed  int64    `json:"seed"`
		Ratio *float64 `json:"ratio,omitempty"`
		Scale float64  `json:"scale"`
		Names []string `json:"names"`
		Rows  bool     `json:"rows"`
		Label string   `json:"label"`
	}
	ratio := 0.25
	for _, tc := range []struct {
		query   string
		want    req
		wantErr string
	}{
		{"", req{Count: 7}, ""},
		{"count=&ratio=", req{Count: 7}, ""},
		{"count=3&seed=8589934593&ratio=0.25&scale=1e3&names=a,%20b,,c&rows=2&label=x",
			req{Count: 3, Seed: 8589934593, Ratio: &ratio, Scale: 1000, Names: []string{"a", "b", "c"}, Rows: true, Label: "x"}, ""},
		{"rows=0", req{Count: 7}, ""},
		{"rows=-1", req{}, "rows -1 negative"},
		{"rows=yes", req{}, `bad rows "yes"`},
		{"seed=99999999999999999999", req{}, `bad seed "99999999999999999999"`},
		{"label=x&scale=abc&count=x", req{}, `bad count "x"`},
		{"scale=abc&ratio=nan-ish", req{}, `bad ratio "nan-ish"`},
	} {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got := req{Count: 7} // a route default
		err = bindQuery(q, &got)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%q: error %v, want %q", tc.query, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: bound %+v (err %v), want %+v", tc.query, got, err, tc.want)
		}
	}
}
