package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"katara"
	"katara/internal/metrics"
	"katara/internal/propcheck"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/workload"
)

// config is one run's settings. Flags set seed, seconds and trace; the sizes
// are the workloads' own and are shrunk only by the smoke test.
type config struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	traceOut  string
	tmpDir    string
	setupReps int
	// personRows is the Person table's size (person316k, person-append).
	personRows int
	// webTables caps the WebTables tables used (0 = all 30).
	webTables int
	// appendRows is the size of person-append's Append.
	appendRows int
	// jobRate is service-webtables' send rate, jobs per second.
	jobRate float64
	log     io.Writer
}

func defaultConfig() config {
	return config{
		seed:       7,
		seconds:    25 * time.Second,
		setupReps:  9,
		personRows: workload.PaperPersonRows,
		appendRows: 512,
		jobRate:    6,
		log:        io.Discard,
	}
}

// workloadSpec is one named workload. BENCHMARK.json and README.md say why
// each exists.
type workloadSpec struct {
	name string
	run  func(config) (*outcome, error)
}

var workloads = []workloadSpec{
	{"person316k", runPerson316k},
	{"webtables", runWebtables},
	{"person-append", runPersonAppend},
	{"service-webtables", runService},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// outcome is what one workload run measured. values holds the end-to-end
// metrics, plus the per-layer ones in traced mode.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	tracer            *tracer
	log               io.Writer
}

func newOutcome(cfg config) *outcome {
	o := &outcome{values: map[string]float64{}, log: cfg.log}
	if cfg.trace {
		o.tracer = newTracer()
	}
	return o
}

// fail counts a failed op and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(o.log, "FAIL: "+format+"\n", args...)
}

// timings reports the op latency median and 95th percentile and logs the
// sample count.
func (o *outcome) timings(ops []time.Duration) {
	xs := durationsMS(ops)
	o.values["op_p50_ms"] = median(xs)
	o.values["katara.op_p95_ms"] = percentile(xs, 0.95)
	fmt.Fprintf(o.log, "ops timed: %d (p50 %.2f ms, p95 %.2f ms)\n", len(xs), o.values["op_p50_ms"], o.values["katara.op_p95_ms"])
}

// setupSeconds runs f reps times and returns the median wall-clock in
// seconds: set-up is repeated so that its own noise does not hide work moved
// into it.
func setupSeconds(reps int, f func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// digest is the SHA-256 of a report's propcheck.Canonical encoding: the
// pattern, question count, every annotation, fact and repair.
func digest(rep *katara.Report) [32]byte { return sha256.Sum256(propcheck.Canonical(rep)) }

// patternF1 scores a validated pattern against the spec's truth (§7.1).
func patternF1(kb *workload.KB, rep *katara.Report, spec *workload.TableSpec) float64 {
	return metrics.PatternPR(kb.Store, rep.Pattern, spec.TruthPattern(kb)).F()
}

// repairF1 scores a report's top-1 repairs against the clean table (§7.4):
// a change is correct when it restores the clean value; the errors are the
// cells where dirty and clean differ.
func repairF1(rep *katara.Report, dirty, clean *table.Table) (float64, error) {
	errs, err := dirty.Diff(clean)
	if err != nil {
		return 0, err
	}
	counts := metrics.RepairCounts{Errors: len(errs)}
	for row, reps := range rep.Repairs {
		if len(reps) == 0 {
			continue
		}
		for _, ch := range reps[0].Changes {
			counts.Changes++
			if ch.From != ch.To && ch.To == clean.Rows[row][ch.Col] {
				counts.CorrectChanges++
			}
		}
	}
	return counts.PR().F(), nil
}

// memoHitRatio is the share of annotation crowd checks answered from the
// distinct-signature memo, from a run's telemetry counters.
func memoHitRatio(ts ...*katara.Timings) float64 {
	var asked, deduped int64
	for _, t := range ts {
		asked += t.Counter(telemetry.CrowdQuestions.String())
		deduped += t.Counter(telemetry.CrowdQuestionsDeduped.String())
	}
	if asked+deduped == 0 {
		return 0
	}
	return float64(deduped) / float64(asked+deduped)
}

// replayMetrics records the per-layer counts of one replayed op.
func replayMetrics(v map[string]float64, c replayCounts) {
	v["table.signatures"] = float64(c.signatures)
	v["discovery.candidates"] = float64(c.candidates)
	v["resolve.hits"] = float64(c.resolveHits)
	v["resolve.misses"] = float64(c.resolveMisses)
	v["resolve.hit_ratio"] = 0
	if c.resolveHits+c.resolveMisses > 0 {
		v["resolve.hit_ratio"] = float64(c.resolveHits) / float64(c.resolveHits+c.resolveMisses)
	}
	v["validation.questions"] = float64(c.validationQuestions)
	v["crowd.questions"] = float64(c.crowd.Questions)
	v["crowd.assignments"] = float64(c.crowd.Assignments)
	v["repair.graphs"] = float64(c.graphs)
	v["repair.topk_calls"] = float64(c.topkCalls)
	v["repair.considered_per_call"] = 0
	if c.topkCalls > 0 {
		v["repair.considered_per_call"] = float64(c.considered) / float64(c.topkCalls)
	}
}

// sumCounts adds the counts of several replayed ops (one pass over the
// WebTables tables).
func sumCounts(cs []replayCounts) replayCounts {
	var s replayCounts
	for _, c := range cs {
		s.signatures += c.signatures
		s.candidates += c.candidates
		s.resolveHits += c.resolveHits
		s.resolveMisses += c.resolveMisses
		s.validationQuestions += c.validationQuestions
		s.crowd.Questions += c.crowd.Questions
		s.crowd.Assignments += c.crowd.Assignments
		s.graphs += c.graphs
		s.topkCalls += c.topkCalls
		s.considered += c.considered
	}
	return s
}

// idleLayers zeroes the per-layer metrics of layers a workload never calls.
func idleLayers(v map[string]float64, names ...string) {
	for _, n := range names {
		v[n] = 0
	}
}

var (
	appendLayers = []string{"katara.append_fast_ms", "katara.append_drift_ms", "katara.drift_share"}
	jobsLayers   = []string{"jobs.submit_ms", "jobs.queue_wait_ms", "jobs.run_ms", "jobs.result_ms", "jobs.rejected", "loadgen.late_p95_ms"}
)
