// Command apicheck keeps docs/openapi.yaml honest: it extracts the
// method+path pairs from the route table in
// internal/service/service.go and from the paths section of the spec,
// and fails if either side lists a route the other does not. For each
// task-backed GET route it also checks that the spec's `in: query`
// parameters are exactly the ones the service's query binder accepts
// (the json tags of the route's request struct, from
// service.QueryParams). Run as `make api-check`; CI runs it in the
// static-check job.
//
// The route table is the single place the service registers endpoints
// (a struct literal per route), and the spec nests `get:`/`post:` under
// `  /v1/...:` path keys with one `- { name: ..., in: query, ... }`
// line per parameter — shapes stable enough to read with line-level
// scanning, which keeps this tool dependency-free.
//
// Usage:
//
//	go run ./internal/tools/apicheck          # check the working tree
//	go run ./internal/tools/apicheck DIR      # check another root
//
// Exit status 1 and one line per mismatch on failure.
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"vccmin/internal/service"
)

// routeRe matches one entry of the service's route table, e.g.
//
//	{"GET", "/v1/sweeps/{id}/stream", s.handleSweepStream},
var routeRe = regexp.MustCompile(`\{"(GET|POST|PUT|PATCH|DELETE)", "(/v1[^"]*)"`)

// pathRe matches an OpenAPI path key at two-space indent.
var pathRe = regexp.MustCompile(`^  (/[^\s:]+):\s*$`)

// methodRe matches an OpenAPI operation key at four-space indent.
var methodRe = regexp.MustCompile(`^    (get|post|put|patch|delete):`)

// queryParamRe matches a one-line query parameter of an operation.
var queryParamRe = regexp.MustCompile(`^\s+- \{ name: ([^,\s]+), in: query\b`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	code, err := codeRoutes(filepath.Join(root, "internal", "service", "service.go"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	spec, params, err := specRoutes(filepath.Join(root, "docs", "openapi.yaml"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	if len(code) == 0 {
		fmt.Fprintln(os.Stderr, "apicheck: no routes found in the service route table (did its shape change?)")
		os.Exit(1)
	}

	bad := 0
	for _, r := range sorted(code) {
		if !spec[r] {
			fmt.Printf("apicheck: %s is registered in service.go but missing from docs/openapi.yaml\n", r)
			bad++
		}
	}
	for _, r := range sorted(spec) {
		if !code[r] {
			fmt.Printf("apicheck: %s is documented in docs/openapi.yaml but not registered in service.go\n", r)
			bad++
		}
	}
	bound := service.QueryParams()
	for _, r := range sorted(keys(bound)) {
		want := map[string]bool{}
		for _, p := range bound[r] {
			want[p] = true
			if !params[r][p] {
				fmt.Printf("apicheck: %s binds query parameter %q, missing from docs/openapi.yaml\n", r, p)
				bad++
			}
		}
		for _, p := range sorted(params[r]) {
			if !want[p] {
				fmt.Printf("apicheck: docs/openapi.yaml lists query parameter %q on %s, which the binder does not accept\n", p, r)
				bad++
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("apicheck: %d routes and the query parameters of %d task routes match docs/openapi.yaml\n",
		len(code), len(bound))
}

func keys(m map[string][]string) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

// codeRoutes scans the service source for route-table entries.
func codeRoutes(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		for _, m := range routeRe.FindAllStringSubmatch(sc.Text(), -1) {
			out[m[1]+" "+m[2]] = true
		}
	}
	return out, sc.Err()
}

// specRoutes scans the OpenAPI file's paths section: a path key at
// two-space indent, then its operations at four-space indent, each with
// its query parameters.
func specRoutes(path string) (routes map[string]bool, params map[string]map[string]bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	params = map[string]map[string]bool{}
	inPaths := false
	current, op := "", ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "paths:"):
			inPaths = true
		case inPaths && len(line) > 0 && line[0] != ' ' && line[0] != '#':
			inPaths = false // a new top-level key ends the section
		}
		if !inPaths {
			continue
		}
		if m := pathRe.FindStringSubmatch(line); m != nil {
			current, op = m[1], ""
			continue
		}
		if m := methodRe.FindStringSubmatch(line); m != nil && current != "" {
			op = strings.ToUpper(m[1]) + " " + current
			out[op] = true
			params[op] = map[string]bool{}
			continue
		}
		if m := queryParamRe.FindStringSubmatch(line); m != nil && op != "" {
			params[op][m[1]] = true
		}
	}
	return out, params, sc.Err()
}

func sorted(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
