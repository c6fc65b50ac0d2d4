package service

import (
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"vccmin/internal/cliflag"
	"vccmin/internal/tasks"
)

// handleTask is the one handler behind every taskRoute.
func (s *Server) handleTask(tr taskRoute) http.HandlerFunc {
	kind, ok := tasks.LookupKind(tr.kind)
	if !ok {
		panic(fmt.Sprintf("service: route %s names unregistered kind %q", tr.path, tr.kind))
	}
	get := tr.method == http.MethodGet // the mux also routes HEAD here
	if get {
		planFor(kind.Request) // a request type the binder cannot fill fails here, at start-up
	}
	return func(w http.ResponseWriter, r *http.Request) {
		req := reflect.New(kind.Request)
		if tr.def != nil {
			req.Elem().Set(reflect.ValueOf(tr.def))
		}
		var err error
		if get {
			err = bindQuery(r.URL.Query(), req.Interface())
		} else {
			err = decodeBody(w, r, req.Interface())
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%s", err)
			return
		}
		t, err := kind.Build(req.Interface())
		if err = s.admit(t, err); err != nil {
			writeErr(w, http.StatusBadRequest, "%s", err)
			return
		}
		s.runTask(w, r, t, tr.tier)
	}
}

// QueryParams lists, per task-backed GET route ("GET /v1/..."), the
// query parameters its binder accepts, in struct order. The api-check
// tool compares them with docs/openapi.yaml.
func QueryParams() map[string][]string {
	out := map[string][]string{}
	for _, tr := range taskRoutes {
		if tr.method != http.MethodGet {
			continue
		}
		kind, _ := tasks.LookupKind(tr.kind)
		names := []string{}
		for _, f := range planFor(kind.Request) {
			names = append(names, f.name)
		}
		out[tr.method+" "+tr.path] = names
	}
	return out
}

// queryField is one json-tagged request field the binder fills.
type queryField struct {
	name  string
	index int
}

// plans caches each request type's field plan (reflect.Type →
// []queryField), so reflection over the struct runs once per type,
// not per request.
var plans sync.Map

// planFor lists a request struct's json-tagged fields in struct order.
// It panics on a field type the binder cannot parse — a programming
// error in a request struct, caught when its route is registered.
func planFor(t reflect.Type) []queryField {
	if p, ok := plans.Load(t); ok {
		return p.([]queryField)
	}
	var plan []queryField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		if !bindable(f.Type) {
			panic(fmt.Sprintf("service: cannot bind query parameter %s of type %s", name, f.Type))
		}
		plan = append(plan, queryField{name: name, index: i})
	}
	plans.Store(t, plan)
	return plan
}

func bindable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64:
		return true
	case reflect.Pointer:
		return t.Elem().Kind() == reflect.Float64
	case reflect.Slice:
		return t.Elem().Kind() == reflect.String
	}
	return false
}

// bindQuery fills the struct v points to from query parameters named by
// its json tags, visiting fields in struct order so the first bad
// parameter is always the one reported. An absent or empty parameter
// leaves its field as it was (a pointer stays nil: the task's default
// applies). Integers parse at their field's full width (int64 seeds
// never truncate), []string fields take comma lists, and bool fields
// take a non-negative integer, nonzero meaning true.
func bindQuery(q url.Values, v any) error {
	rv := reflect.ValueOf(v).Elem()
	for _, f := range planFor(rv.Type()) {
		s := q.Get(f.name)
		if s == "" {
			continue
		}
		fv := rv.Field(f.index)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(s)
		case reflect.Slice:
			fv.Set(reflect.ValueOf(cliflag.Split(s)))
		case reflect.Int, reflect.Int64:
			n, err := strconv.ParseInt(s, 10, fv.Type().Bits())
			if err != nil {
				return fmt.Errorf("bad %s %q", f.name, s)
			}
			fv.SetInt(n)
		case reflect.Bool:
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("bad %s %q", f.name, s)
			}
			if n < 0 {
				return fmt.Errorf("%s %d negative", f.name, n)
			}
			fv.SetBool(n != 0)
		case reflect.Float64, reflect.Pointer:
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("bad %s %q", f.name, s)
			}
			if fv.Kind() == reflect.Pointer {
				fv.Set(reflect.ValueOf(&x))
			} else {
				fv.SetFloat(x)
			}
		}
	}
	return nil
}
