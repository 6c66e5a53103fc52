package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change run pairs a claim may rest on.
const minPairs = 10

// runCompare implements `compare PARENT.jsonl CHANGE.jsonl`: the same-machine
// A/B rule for two --record files. The i-th run of a workload in one file is
// paired with the i-th run of that workload in the other; alternate which
// side runs first when recording them. For every (workload, metric) it
// prints each side's median and quartiles and a verdict:
//
//   - improved: the change wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's quartile
//     spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound (end-to-end metrics only);
//   - unresolved: the parent's own spread is wider than the bound, so no
//     regression verdict is possible, unless every change run beats every
//     parent run;
//   - within bound: none of the above.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	regressions := 0
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			ra, rb := a[runKey{w.name, mode.trace}], b[runKey{w.name, mode.trace}]
			if len(ra) == 0 && len(rb) == 0 {
				continue
			}
			fa, fb := failures(ra), failures(rb)
			fmt.Fprintf(stdout, "== %s (trace=%v): parent %d runs (%d failed ops), change %d runs (%d failed ops)\n",
				w.name, mode.trace, len(ra), fa, len(rb), fb)
			if fb > fa {
				fmt.Fprintln(stdout, "   the change fails more ops than the parent: no gain counts")
			}
			for _, d := range mode.defs {
				v := compareMetric(d, values(ra, d.Name), values(rb, d.Name))
				if v.verdict == "regressed" {
					regressions++
				}
				fmt.Fprintf(stdout, "   %-28s %s\n", d.Name, v)
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", regressions)
		return 1
	}
	return 0
}

type runKey struct {
	workload string
	trace    bool
}

func readRecords(path string) (map[runKey][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s:%d: no result", path, line)
		}
		k := runKey{r.Workload, r.Trace}
		out[k] = append(out[k], r.Result)
	}
	return out, sc.Err()
}

func failures(rs []*result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparison is one (workload, metric) line of the report.
type comparison struct {
	unit                string
	pairs, wins         int
	medA, q1A, q3A      float64
	medB, q1B, q3B      float64
	verdict, why        string
	haveStats, hasBound bool
}

func (c comparison) String() string {
	if !c.haveStats {
		return fmt.Sprintf("%s (%s)", c.verdict, c.why)
	}
	s := fmt.Sprintf("parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s  wins %d/%d  %s",
		c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.unit, c.wins, c.pairs, c.verdict)
	if c.why != "" {
		s += " (" + c.why + ")"
	}
	return s
}

// compareMetric applies the A/B rule to one metric's parent runs xs and
// change runs ys, paired by position.
func compareMetric(d metricDef, xs, ys []float64) comparison {
	c := comparison{unit: d.Unit, hasBound: d.Bound > 0}
	c.pairs = min(len(xs), len(ys))
	if c.pairs < minPairs {
		c.verdict, c.why = "no verdict", fmt.Sprintf("%d pairs, need %d", c.pairs, minPairs)
		return c
	}
	xs, ys = xs[:c.pairs], ys[:c.pairs]
	c.haveStats = true
	c.medA, c.medB = median(xs), median(ys)
	c.q1A, c.q3A = quartiles(xs)
	c.q1B, c.q3B = quartiles(ys)
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range xs {
		if better(ys[i], xs[i]) {
			c.wins++
		}
	}
	gap := math.Abs(c.medB - c.medA)
	iqrA := c.q3A - c.q1A
	allBetter := true
	for _, y := range ys {
		for _, x := range xs {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	worseBy := c.medA - c.medB // positive when the change is worse
	if d.Better == "lower" {
		worseBy = -worseBy
	}
	switch {
	case better(c.medB, c.medA) && c.wins*10 >= 9*c.pairs && gap > iqrA:
		c.verdict = "improved"
	case allBetter:
		c.verdict = "improved"
		c.why = "every change run beats every parent run"
	case !c.hasBound:
		c.verdict = "no claim"
	case c.medA != 0 && iqrA/math.Abs(c.medA) > d.Bound:
		c.verdict = "unresolved"
		c.why = fmt.Sprintf("parent spread %.3f exceeds bound %.2f", iqrA/math.Abs(c.medA), d.Bound)
	case worseBy > d.Bound*math.Abs(c.medA):
		c.verdict = "regressed"
		c.why = fmt.Sprintf("worse by %.1f%%, bound %.0f%%", 100*worseBy/math.Abs(c.medA), 100*d.Bound)
	default:
		c.verdict = "within bound"
	}
	return c
}
