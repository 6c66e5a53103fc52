package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkFoo-8", "BenchmarkFoo", 8},
		{"BenchmarkFoo", "BenchmarkFoo", 0},
		{"BenchmarkFoo/sub-case-16", "BenchmarkFoo/sub-case", 16},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 0}, // dash but no digits
		{"BenchmarkFoo-0", "BenchmarkFoo-0", 0},     // procs must be positive
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = (%q, %d), want (%q, %d)", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

// TestMainParsesStream: feed a test2json stream — with a benchmark line
// split across two output events, custom ReportMetric pairs (one printed
// between ns/op and -benchmem's B/op), and non-JSON noise — through main and
// check the written snapshot. main is invoked
// in-process exactly once (its flag definitions live on the global
// CommandLine).
func TestMainParsesStream(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Package":"katara","Output":"BenchmarkEndToEndClean-8   \t     100\t  12`,
		`{"Action":"output","Package":"katara","Output":"345678 ns/op\t 2048 B/op\t 99 allocs/op\n"}`,
		`{"Action":"output","Package":"katara/internal/telemetry","Output":"BenchmarkQuantile \t 5000\t 111.5 ns/op\t 3.5 p50-ns/op\n"}`,
		`{"Action":"output","Package":"katara/x","Output":"BenchmarkAppendDelta-2 \t 3\t 9400000 ns/op\t 0.03 append-vs-full-ratio/op\t 524288 B/op\t 1200 allocs/op\n"}`,
		`{"Action":"run","Package":"katara"}`,
		`not json at all`,
		``,
	}, "\n")
	// The first fragment is deliberately truncated mid-number and never
	// closed — a torn event must be skipped, not crash the join.

	in, err := os.CreateTemp(t.TempDir(), "stdin-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.WriteString(stream); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Seek(0, 0); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "snap.json")
	oldStdin, oldArgs := os.Stdin, os.Args
	defer func() { os.Stdin, os.Args = oldStdin, oldArgs }()
	os.Stdin = in
	os.Args = []string{"benchsave", "-out", out}
	main()

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if snap.GoVersion == "" || snap.GOOS == "" || snap.Timestamp == "" {
		t.Fatalf("metadata missing: %+v", snap)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (the torn line must be dropped): %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	b := snap.Benchmarks[0]
	if b.Name != "BenchmarkQuantile" || b.Iterations != 5000 || b.NsPerOp != 111.5 {
		t.Fatalf("parsed benchmark wrong: %+v", b)
	}
	if b.Metrics["p50-ns/op"] != 3.5 {
		t.Fatalf("custom metric not captured: %+v", b.Metrics)
	}
	b = snap.Benchmarks[1]
	if b.Name != "BenchmarkAppendDelta" || b.Procs != 2 || b.NsPerOp != 9400000 ||
		b.BytesPerOp != 524288 || b.AllocsPerOp != 1200 {
		t.Fatalf("-benchmem figures after a custom metric parsed wrong: %+v", b)
	}
	if len(b.Metrics) != 1 || b.Metrics["append-vs-full-ratio/op"] != 0.03 {
		t.Fatalf("custom metrics = %v, want only the ratio", b.Metrics)
	}
}

// TestAggregate: the lines of a -count N run become one record of medians
// with the ns/op quartiles of statistics.quantiles(n=4); distinct
// (package, name, procs) keys stay apart, in first-appearance order.
func TestAggregate(t *testing.T) {
	run := func(name string, procs int, ns, bytes, allocs float64, metrics map[string]float64) Benchmark {
		return Benchmark{Package: "p", Name: name, Procs: procs, Iterations: int64(ns), NsPerOp: ns,
			BytesPerOp: bytes, AllocsPerOp: allocs, Metrics: metrics}
	}
	for _, tc := range []struct {
		name string
		in   []Benchmark
		want []Benchmark
	}{
		{
			name: "single run keeps its values",
			in:   []Benchmark{run("BenchmarkA", 8, 100, 64, 2, nil)},
			want: []Benchmark{{Package: "p", Name: "BenchmarkA", Procs: 8, Iterations: 100, NsPerOp: 100,
				BytesPerOp: 64, AllocsPerOp: 2, Runs: 1}},
		},
		{
			// statistics.quantiles([90, 100, 110, 120, 130], n=4) == [95, 110, 125]
			name: "odd count takes the middle run",
			in: []Benchmark{
				run("BenchmarkA", 8, 120, 70, 3, map[string]float64{"p50-ns/op": 9}),
				run("BenchmarkA", 8, 100, 64, 2, map[string]float64{"p50-ns/op": 7}),
				run("BenchmarkA", 8, 130, 64, 2, map[string]float64{"p50-ns/op": 8}),
				run("BenchmarkA", 8, 90, 80, 2, map[string]float64{"p50-ns/op": 6}),
				run("BenchmarkA", 8, 110, 64, 2, map[string]float64{"p50-ns/op": 5}),
			},
			want: []Benchmark{{Package: "p", Name: "BenchmarkA", Procs: 8, Iterations: 110, NsPerOp: 110,
				BytesPerOp: 64, AllocsPerOp: 2, Metrics: map[string]float64{"p50-ns/op": 7},
				Runs: 5, NsPerOpQ1: 95, NsPerOpQ3: 125}},
		},
		{
			// statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25, 37.5]
			name: "even count averages the middle runs; keys stay apart",
			in: []Benchmark{
				run("BenchmarkB", 8, 40, 0, 0, nil),
				run("BenchmarkA", 8, 5, 0, 0, nil),
				run("BenchmarkB", 8, 10, 0, 0, nil),
				run("BenchmarkB", 4, 7, 0, 0, nil),
				run("BenchmarkB", 8, 30, 0, 0, nil),
				run("BenchmarkB", 8, 20, 0, 0, nil),
			},
			want: []Benchmark{
				{Package: "p", Name: "BenchmarkB", Procs: 8, Iterations: 25, NsPerOp: 25, Runs: 4, NsPerOpQ1: 12.5, NsPerOpQ3: 37.5},
				{Package: "p", Name: "BenchmarkA", Procs: 8, Iterations: 5, NsPerOp: 5, Runs: 1},
				{Package: "p", Name: "BenchmarkB", Procs: 4, Iterations: 7, NsPerOp: 7, Runs: 1},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := aggregate(tc.in); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("aggregate:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
