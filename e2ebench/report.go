package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// The metrics the benchmark's JSON result line carries: every
// end_to_end metric of BENCHMARK.json in an untraced run, every
// per_layer metric in a traced run. The human-readable lines above it
// print these and every other metric the run measured.
var (
	jsonEndToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p99_ms", "heap_peak_mb"}
	jsonPerLayer = []string{
		"service.handler_p50_us", "service.transport_p50_us",
		"tasks.build_us",
		"engine.mem_hit_frac", "engine.disk_hit_frac", "engine.miss_frac",
		"engine.do_us.hit", "engine.do_us.disk", "engine.miss_overhead_us",
		"runtime.alloc_kb_per_op", "runtime.gc_per_kop",
		"trace.throughput_ratio",
	}
)

// metric is one reported number with the sample count behind it.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int    // samples behind the value
	pctl   bool   // a percentile: beyond is meaningful
	beyond int    // for a percentile: samples above it
	note   string // what the number is, when the name alone does not say
}

// report collects a run's metrics and its failed checks.
type report struct {
	e2e      []metric
	layer    []metric
	problems []string // failed checks; any one makes the run incorrect
	notes    []string // observations that do not fail the run
}

func (r *report) addE2E(m metric)   { r.e2e = append(r.e2e, m) }
func (r *report) addLayer(m metric) { r.layer = append(r.layer, m) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// quantile is the nearest-rank q-quantile of xs and the number of
// samples ranked above it.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

func median(xs []float64) float64 { v, _ := quantile(xs, 0.5); return v }

// pct reports a percentile metric of xs.
func pct(name, unit string, xs []float64, q float64, note string) metric {
	v, beyond := quantile(xs, q)
	return metric{name: name, value: v, unit: unit, n: len(xs), pctl: true, beyond: beyond, note: note}
}

// layerMedian reports the median of one per-layer sample set, or a
// zero with n=0 when the workload never reached that layer.
func layerMedian(s samples, name, unit string) metric {
	xs := s[name]
	if len(xs) == 0 {
		return metric{name: name, unit: unit, note: "no work in this workload"}
	}
	return metric{name: name, value: median(xs), unit: unit, n: len(xs)}
}

// host describes the machine a run measured, so numbers from different
// hosts are never compared silently.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// fingerprint is a short digest of the host description.
func (h host) fingerprint() string {
	b, _ := json.Marshal(h) // plain struct of strings and ints
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

func printMetrics(w io.Writer, tag string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%-6s %-34s %14.6g %-9s n=%d", tag, m.name, m.value, m.unit, m.n)
		if m.pctl {
			line += fmt.Sprintf(" beyond=%d", m.beyond)
		}
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the JSON line from the named metrics of ms.
func result(ms []metric, names []string, attempted, failed int, correct bool) (resultLine, error) {
	by := make(map[string]metric, len(ms))
	for _, m := range ms {
		by[m.name] = m
	}
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]resultValue)}
	for _, name := range names {
		m, ok := by[name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = resultValue{Value: m.value, Unit: m.unit}
	}
	return out, nil
}
