// Command benchsave converts a `go test -json -bench` stream on stdin into a
// benchmark snapshot file — the BENCH_*.json trajectory points referenced in
// DESIGN.md. Typical use is via the Makefile:
//
//	make bench-save            # writes BENCH_10.json
//
// which runs
//
//	go test -run '^$' -bench=. -benchmem -benchtime=200ms -count 5 -json ./... \
//	    | go run ./cmd/benchsave -out BENCH_10.json
//
// test2json splits test output into per-event fragments that can break a
// benchmark result line mid-number, so the tool re-joins output per package
// before extracting result lines. A benchmark that ran several times
// (-count N) becomes one record of medians with its ns/op quartiles.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// event is the subset of test2json's event schema benchsave needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// Benchmark is one benchmark result line, parsed.
type Benchmark struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries custom units reported via testing.B.ReportMetric —
	// e.g. the latency percentiles ("p50-ns/op", "p99-ns/op") the telemetry
	// benchmarks emit — keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs is the number of result lines (go test -count N) this record
	// aggregates. Iterations, the per-op figures and Metrics are then the
	// medians over those runs, and NsPerOpQ1/NsPerOpQ3 the ns/op quartiles
	// as Python's statistics.quantiles(n=4) computes them (two runs or more).
	Runs      int     `json:"runs"`
	NsPerOpQ1 float64 `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3 float64 `json:"ns_per_op_q3,omitempty"`
}

// Snapshot is the file format: run metadata plus every benchmark result.
type Snapshot struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Timestamp  string      `json:"timestamp"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches a benchmark result line: the name, the iteration count
// and the `value unit` pairs after it. The name keeps any sub-benchmark
// path; a trailing -N GOMAXPROCS suffix is split off after.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+)[ \t]+(\d+)[ \t]+([^\n]*)`)

// valueUnit matches one `value unit` pair of a result line. -benchmem's
// B/op and allocs/op come last, after any custom pair that
// testing.B.ReportMetric adds, so pairs are told apart by unit, not place.
var valueUnit = regexp.MustCompile(`(-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)[ \t]+(\S+)`)

func main() {
	out := flag.String("out", "", "snapshot file to write (default stdout)")
	flag.Parse()

	// Join each package's output fragments; benchmark lines may span events.
	perPkg := map[string]*strings.Builder{}
	var pkgs []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue // tolerate non-JSON noise (e.g. build warnings)
		}
		if ev.Action != "output" || ev.Output == "" {
			continue
		}
		b := perPkg[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			perPkg[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsave: reading stdin:", err)
		os.Exit(1)
	}

	snap := Snapshot{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	sort.Strings(pkgs)
	var results []Benchmark
	for _, pkg := range pkgs {
		for _, m := range benchLine.FindAllStringSubmatch(perPkg[pkg].String(), -1) {
			b := Benchmark{Package: pkg}
			b.Name, b.Procs = splitProcs(m[1])
			b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
			timed := false
			for _, p := range valueUnit.FindAllStringSubmatch(m[3], -1) {
				v, err := strconv.ParseFloat(p[1], 64)
				if err != nil {
					continue
				}
				switch p[2] {
				case "ns/op":
					b.NsPerOp, timed = v, true
				case "B/op":
					b.BytesPerOp = v
				case "allocs/op":
					b.AllocsPerOp = v
				default:
					if b.Metrics == nil {
						b.Metrics = map[string]float64{}
					}
					b.Metrics[p[2]] = v
				}
			}
			if timed {
				results = append(results, b)
			}
		}
	}
	snap.Benchmarks = aggregate(results)
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchsave: no benchmark results found in input")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsave:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsave:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsave: wrote %d benchmark results to %s\n", len(snap.Benchmarks), *out)
}

// splitProcs splits the conventional -N GOMAXPROCS suffix off a benchmark
// name ("BenchmarkFoo-8" → "BenchmarkFoo", 8). Names may legitimately
// contain dashes, so only a trailing all-digits segment is treated as procs.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 0
	}
	return name[:i], n
}

// aggregate folds the results of one (package, name, procs) benchmark —
// the N lines of a -count N run — into one record of medians, keeping the
// order in which benchmarks first appear.
func aggregate(results []Benchmark) []Benchmark {
	type key struct {
		pkg, name string
		procs     int
	}
	var order []key
	groups := map[key][]Benchmark{}
	for _, b := range results {
		k := key{b.Package, b.Name, b.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		runs := groups[k]
		field := func(f func(Benchmark) float64) []float64 {
			xs := make([]float64, len(runs))
			for i, b := range runs {
				xs[i] = f(b)
			}
			return xs
		}
		ns := field(func(b Benchmark) float64 { return b.NsPerOp })
		agg := Benchmark{
			Package:     k.pkg,
			Name:        k.name,
			Procs:       k.procs,
			Iterations:  int64(median(field(func(b Benchmark) float64 { return float64(b.Iterations) }))),
			NsPerOp:     median(ns),
			BytesPerOp:  median(field(func(b Benchmark) float64 { return b.BytesPerOp })),
			AllocsPerOp: median(field(func(b Benchmark) float64 { return b.AllocsPerOp })),
			Runs:        len(runs),
		}
		if len(runs) >= 2 {
			agg.NsPerOpQ1, agg.NsPerOpQ3 = quartiles(ns)
		}
		units := map[string][]float64{}
		for _, b := range runs {
			for u, v := range b.Metrics {
				units[u] = append(units[u], v)
			}
		}
		for u, xs := range units {
			if agg.Metrics == nil {
				agg.Metrics = map[string]float64{}
			}
			agg.Metrics[u] = median(xs)
		}
		out = append(out, agg)
	}
	return out
}

// median is the middle value of xs (the mean of the two middle ones for an
// even count); xs is sorted in place and must not be empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), the
// spread bench/run.sh compare reports. xs (at least two values) is sorted in
// place.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
