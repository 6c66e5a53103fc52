package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one metric of the benchmark's catalogue. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; the
// smoke test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the cleaner sees, reported with tracing
// off on every workload. Bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"crowd_questions", "count", "lower", 0.25},
	{"pattern_f1", "ratio", "higher", 0.10},
}

// perLayer are the traced-mode metrics of single layers, named after this
// repository's packages (see README.md for how each is computed).
var perLayer = []metricDef{
	{"kbstats.build_ms", "ms", "lower", 0},
	{"table.intern_ms", "ms", "lower", 0},
	{"table.signatures", "count", "lower", 0},
	{"discovery.generate_ms", "ms", "lower", 0},
	{"discovery.rankjoin_ms", "ms", "lower", 0},
	{"discovery.candidates", "count", "lower", 0},
	{"resolve.hits", "count", "higher", 0},
	{"resolve.misses", "count", "lower", 0},
	{"resolve.hit_ratio", "ratio", "higher", 0},
	{"validation.muvf_ms", "ms", "lower", 0},
	{"validation.questions", "count", "lower", 0},
	{"annotation.coverage_ms", "ms", "lower", 0},
	{"annotation.decide_ms", "ms", "lower", 0},
	{"crowd.questions", "count", "lower", 0},
	{"crowd.assignments", "count", "lower", 0},
	{"crowd.memo_hit_ratio", "ratio", "higher", 0},
	{"repair.build_index_ms", "ms", "lower", 0},
	{"repair.graphs", "count", "lower", 0},
	{"repair.topk_ms", "ms", "lower", 0},
	{"repair.topk_calls", "count", "lower", 0},
	{"repair.considered_per_call", "count", "lower", 0},
	{"repair.f1", "ratio", "higher", 0},
	{"rdf.clone_ms", "ms", "lower", 0},
	{"rdf.snapshot_ms", "ms", "lower", 0},
	{"table.alloc_mib", "MiB", "lower", 0},
	{"kbstats.alloc_mib", "MiB", "lower", 0},
	{"discovery.alloc_mib", "MiB", "lower", 0},
	{"validation.alloc_mib", "MiB", "lower", 0},
	{"annotation.alloc_mib", "MiB", "lower", 0},
	{"repair.alloc_mib", "MiB", "lower", 0},
	{"katara.op_p95_ms", "ms", "lower", 0},
	{"katara.rows_per_s", "rows/s", "higher", 0},
	{"katara.untraced_ms", "ms", "lower", 0},
	{"katara.append_fast_ms", "ms", "lower", 0},
	{"katara.append_drift_ms", "ms", "lower", 0},
	{"katara.drift_share", "ratio", "lower", 0},
	{"jobs.submit_ms", "ms", "lower", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.run_ms", "ms", "lower", 0},
	{"jobs.result_ms", "ms", "lower", 0},
	{"jobs.rejected", "count", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"loadgen.late_p95_ms", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.span_coverage", "ratio", "higher", 0},
}

// metricValue is one reported metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from values, failing on a missing or
// non-finite value: every catalogue metric is reported on every workload.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle ones for even n); 0 for
// no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1); 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones the benchmark's consumers compute.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
