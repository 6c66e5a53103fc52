// Command bench is the repository's benchmark of record. It runs one named
// workload against the cleaner, checks every output for correctness, and
// prints every metric by name with its unit; the last line of its standard
// output is one JSON result object. Run it from the repository root:
//
//	bash bench/run.sh --workload person316k --seed 7 --seconds 25 --trace 0
//	bash bench/run.sh --workload all
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// With --trace 1 it reports per-layer metrics instead of end-to-end ones,
// from a replay of the pipeline that times each layer's entry points (see
// README.md). Only the standard library is used.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: person316k, webtables, person-append, service-webtables, or all")
	seed := fs.Int64("seed", 7, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1 = traced mode: per-layer metrics from a layer-by-layer replay")
	traceOut := fs.String("trace-out", "", "traced mode: write every span as JSONL to this file")
	recordPath := fs.String("record", "", "append {workload, seed, trace, result} as one JSON line to this file (the input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := defaultConfig()
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	cfg.traceOut = *traceOut
	cfg.tmpDir = os.Getenv("KATARA_BENCH_TMP")
	cfg.log = stdout
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs w and assembles its result line: the end-to-end metrics,
// or the per-layer ones in traced mode.
func runWorkload(w workloadSpec, cfg config) (*result, error) {
	o, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.values["peak_rss_mib"] = rss
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if cfg.traceOut != "" {
			if err := o.tracer.writeJSONL(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	for _, d := range defs {
		if v, ok := o.values[d.Name]; ok {
			fmt.Fprintf(cfg.log, "%-28s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	m, err := fill(defs, o.values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// runAll runs every workload, each in its own child process (so each
// reports its own peak RSS), with the caller's flags.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		fmt.Fprintf(stdout, "== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "bench:", err)
			}
			status = 1
		}
	}
	return status
}

// record is one line of a --record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
