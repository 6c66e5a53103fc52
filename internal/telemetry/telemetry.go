// Package telemetry instruments the KATARA pipeline: wall-clock timers for
// the pipeline stages (discover → validate → annotate → repair), monotonic
// counters for the quantities the paper's cost model cares about (crowd
// questions, KB lookups, instance graphs enumerated), latency histograms
// and a span journal for live observation.
//
// The instrument is a *Pipeline. A nil *Pipeline is the disabled instrument:
// every method is safe to call on it and does nothing, without allocating,
// so hot paths can be unconditionally instrumented —
//
//	start := tel.StartStage(telemetry.StageAnnotate) // zero Time when nil
//	...
//	tel.EndStage(telemetry.StageAnnotate, start)
//	tel.Inc(telemetry.CrowdQuestions)
//
// Counters use atomics, so one Pipeline may be shared across goroutines; the
// parallel stages' fan-out ranges record into child pipelines that Merge
// folds back after the join.
package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic pipeline counter.
type Counter int

const (
	// CrowdQuestions counts crowd questions issued (validation §5 and
	// annotation §6.1 combined) — the paper's monetary-cost driver.
	CrowdQuestions Counter = iota
	// CrowdAssignments counts paid assignment deliveries (each question is
	// asked of several workers; markets price per assignment).
	CrowdAssignments
	// KBLookups counts knowledge-base probes: per-cell label resolutions
	// during candidate generation (Q_types/Q_rels) and per-tuple coverage
	// evaluations during annotation. Parallel runs may probe more than
	// serial ones (per-range caches, speculative coverage precompute).
	KBLookups
	// GraphsEnumerated counts instance graphs materialised into repair
	// indexes (§6.2) — zero when cleaning an error-free table.
	GraphsEnumerated
	// TuplesAnnotated counts tuples labelled by the annotator.
	TuplesAnnotated
	// RepairsGenerated counts candidate repairs returned by top-k retrieval.
	RepairsGenerated
	// CrowdRetries counts assignment delivery retries (backoff waits) issued
	// by the crowd resilience layer.
	CrowdRetries
	// CrowdTimeouts counts assignments that exceeded their timeout (or the
	// run deadline) while outstanding.
	CrowdTimeouts
	// CrowdAbandonments counts assignments abandoned by workers and
	// reassigned to fresh ones.
	CrowdAbandonments
	// CrowdEscalations counts adaptive-redundancy assignments posted beyond
	// the base per-question redundancy because the vote margin was low.
	CrowdEscalations
	// DegradedDecisions counts pipeline decisions taken under a
	// graceful-degradation policy (pattern fallback, unanswered tuples)
	// after the budget or deadline ran out.
	DegradedDecisions
	// ResolverHits counts label resolutions served from the shared
	// entity-resolution cache, catch-ups included: a hit on an entry stored
	// before labels were indexed looks up only those labels.
	ResolverHits
	// ResolverMisses counts label resolutions the cache had to ask the KB
	// for (first sight of a value); a frozen KB layer's memo may answer the
	// KB's part.
	ResolverMisses
	// CrowdQuestionsDeduped counts crowd questions answered from the
	// distinct-signature memo instead of being issued: a duplicate row's
	// check reuses the answer its signature's first occurrence obtained.
	CrowdQuestionsDeduped

	numCounters
)

// String returns the counter's stable snapshot name.
func (c Counter) String() string {
	switch c {
	case CrowdQuestions:
		return "crowd-questions"
	case CrowdAssignments:
		return "crowd-assignments"
	case KBLookups:
		return "kb-lookups"
	case GraphsEnumerated:
		return "graphs-enumerated"
	case TuplesAnnotated:
		return "tuples-annotated"
	case RepairsGenerated:
		return "repairs-generated"
	case CrowdRetries:
		return "crowd-retries"
	case CrowdTimeouts:
		return "crowd-timeouts"
	case CrowdAbandonments:
		return "crowd-abandonments"
	case CrowdEscalations:
		return "crowd-escalations"
	case DegradedDecisions:
		return "degraded-decisions"
	case ResolverHits:
		return "resolver-hits"
	case ResolverMisses:
		return "resolver-misses"
	case CrowdQuestionsDeduped:
		return "crowd-questions-deduped"
	default:
		return fmt.Sprintf("counter-%d", int(c))
	}
}

// Stage identifies one timed pipeline stage.
type Stage int

const (
	// StageDiscover is candidate generation plus the rank join (§4).
	StageDiscover Stage = iota
	// StageValidate is crowd pattern validation (§5).
	StageValidate
	// StageAnnotate is per-tuple annotation (§6.1).
	StageAnnotate
	// StageBuildIndex is instance-graph enumeration and inverted-list
	// construction (§6.2) — a sub-stage of repair, reported separately
	// because it dominates on large KBs.
	StageBuildIndex
	// StageRepair is the whole repair stage: index construction plus
	// per-row top-k retrieval.
	StageRepair

	numStages
)

// String returns the stage's stable snapshot name.
func (s Stage) String() string {
	switch s {
	case StageDiscover:
		return "discover"
	case StageValidate:
		return "validate"
	case StageAnnotate:
		return "annotate"
	case StageBuildIndex:
		return "build-index"
	case StageRepair:
		return "repair"
	default:
		return fmt.Sprintf("stage-%d", int(s))
	}
}

// Pipeline accumulates one run's instrumentation. The zero value is ready to
// use; nil means disabled.
type Pipeline struct {
	counters [numCounters]atomic.Int64
	stageNS  [numStages]atomic.Int64
	stageN   [numStages]atomic.Int64
	hists    [numHists]Histogram

	// Span journal (trace.go). journal is attached before the run; the
	// scope stack tracks pushed spans (run root, stages) so leaf spans from
	// any goroutine find their parent through curSpan.
	journal   *Journal
	spanMu    sync.Mutex
	spanStack []uint64
	curSpan   atomic.Uint64

	// curStagePlus1 is the innermost active stage + 1 (0 = idle), for the
	// /progress endpoint. stageStack restores the enclosing stage when
	// nested stages (build-index inside repair) end.
	curStagePlus1 atomic.Int32
	stageStack    []Stage
	stageSpans    [numStages]Span
}

// New returns an enabled Pipeline.
func New() *Pipeline { return &Pipeline{} }

// Inc adds 1 to counter c.
func (p *Pipeline) Inc(c Counter) { p.Add(c, 1) }

// Add adds n to counter c.
func (p *Pipeline) Add(c Counter, n int64) {
	if p == nil {
		return
	}
	p.counters[c].Add(n)
}

// Get returns the current value of counter c (0 when disabled).
func (p *Pipeline) Get(c Counter) int64 {
	if p == nil {
		return 0
	}
	return p.counters[c].Load()
}

// StartStage marks entry into s and returns the start time to hand back to
// EndStage. Disabled pipelines return the zero Time. Stages are entered and
// left by the orchestrating goroutine only, never by fan-out workers; when a
// journal is attached each stage also becomes a scoped span, so
// sub-operation spans nest under it.
func (p *Pipeline) StartStage(s Stage) time.Time {
	if p == nil {
		return time.Time{}
	}
	p.spanMu.Lock()
	p.stageStack = append(p.stageStack, s)
	p.spanMu.Unlock()
	p.curStagePlus1.Store(int32(s) + 1)
	if p.journal != nil {
		p.stageSpans[s] = p.PushSpan(s.String())
	}
	return time.Now()
}

// EndStage accumulates the time spent in s since start.
func (p *Pipeline) EndStage(s Stage, start time.Time) {
	if p == nil {
		return
	}
	d := time.Since(start)
	p.stageNS[s].Add(int64(d))
	p.stageN[s].Add(1)
	if p.journal != nil {
		sp := p.stageSpans[s]
		sp.End()
		p.stageSpans[s] = Span{}
	}
	p.spanMu.Lock()
	for i := len(p.stageStack) - 1; i >= 0; i-- {
		if p.stageStack[i] == s {
			p.stageStack = append(p.stageStack[:i], p.stageStack[i+1:]...)
			break
		}
	}
	var cur int32
	if n := len(p.stageStack); n > 0 {
		cur = int32(p.stageStack[n-1]) + 1
	}
	p.curStagePlus1.Store(cur)
	p.spanMu.Unlock()
}

// CurrentStage returns the innermost active stage's name, or "" when the
// pipeline is idle (or disabled). Safe from any goroutine — the /progress
// endpoint polls it while the run executes.
func (p *Pipeline) CurrentStage() string {
	if p == nil {
		return ""
	}
	v := p.curStagePlus1.Load()
	if v == 0 {
		return ""
	}
	return Stage(v - 1).String()
}

// Merge folds o's counters, stage accumulators and histograms into p — the
// range-combining operation: each range of a parallel stage's fan-out
// records into its own Pipeline, and the fan-out merges them into the run's
// pipeline once it joins. Span/journal state is not merged (range pipelines
// carry no journal). Safe when either side is nil or when o is still being
// written by other goroutines (all state is atomic), though the fan-out
// merges only after its ranges join.
func (p *Pipeline) Merge(o *Pipeline) {
	if p == nil || o == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		if n := o.counters[c].Load(); n != 0 {
			p.counters[c].Add(n)
		}
	}
	for s := Stage(0); s < numStages; s++ {
		if ns := o.stageNS[s].Load(); ns != 0 {
			p.stageNS[s].Add(ns)
		}
		if n := o.stageN[s].Load(); n != 0 {
			p.stageN[s].Add(n)
		}
	}
	for h := Hist(0); h < numHists; h++ {
		p.hists[h].Merge(&o.hists[h])
	}
}

// StageTiming is the accumulated wall-clock of one stage.
type StageTiming struct {
	Stage    string        `json:"stage"`
	Calls    int64         `json:"calls"`
	Duration time.Duration `json:"duration_ns"`
}

// CounterValue is one counter's final value.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of a Pipeline, attached to
// katara.Report.Timings, rendered by the -stats CLI flags, emitted whole by
// -stats-json, and exposed in Prometheus text format by WriteProm.
type Snapshot struct {
	// Stages lists the entered stages in pipeline order.
	Stages []StageTiming `json:"stages"`
	// Counters lists every counter (including zeros) in declaration order.
	Counters []CounterValue `json:"counters"`
	// Hists lists every latency histogram (including empty ones) in
	// declaration order, with percentiles and raw buckets.
	Hists []HistStat `json:"histograms"`
	// Verbose makes String list zero-valued counters and empty histograms
	// too; by default they are omitted, so an error-free run's -stats block
	// does not enumerate every never-hit fault counter.
	Verbose bool `json:"-"`
}

// Snapshot copies the current state; nil (disabled) pipelines return nil.
func (p *Pipeline) Snapshot() *Snapshot {
	if p == nil {
		return nil
	}
	snap := &Snapshot{}
	for s := Stage(0); s < numStages; s++ {
		n := p.stageN[s].Load()
		if n == 0 {
			continue
		}
		snap.Stages = append(snap.Stages, StageTiming{
			Stage:    s.String(),
			Calls:    n,
			Duration: time.Duration(p.stageNS[s].Load()),
		})
	}
	for c := Counter(0); c < numCounters; c++ {
		snap.Counters = append(snap.Counters, CounterValue{Name: c.String(), Value: p.counters[c].Load()})
	}
	for h := Hist(0); h < numHists; h++ {
		snap.Hists = append(snap.Hists, p.hists[h].stat(h.String()))
	}
	return snap
}

// HistByName returns the named histogram snapshot, or nil if absent.
func (s *Snapshot) HistByName(name string) *HistStat {
	if s == nil {
		return nil
	}
	for i := range s.Hists {
		if s.Hists[i].Name == name {
			return &s.Hists[i]
		}
	}
	return nil
}

// Counter returns the value of the named counter, or 0 if absent.
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Total returns the summed duration of every recorded stage.
func (s *Snapshot) Total() time.Duration {
	if s == nil {
		return 0
	}
	var t time.Duration
	for _, st := range s.Stages {
		t += st.Duration
	}
	return t
}

// String renders the snapshot as the aligned text block printed by -stats.
// Zero-valued counters and empty histograms are omitted unless Verbose is
// set, so an error-free run does not list every never-hit fault counter.
func (s *Snapshot) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("pipeline stages:\n")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "  %-12s %12s", st.Stage, st.Duration.Round(time.Microsecond))
		if st.Calls > 1 {
			fmt.Fprintf(&b, "  (%d calls)", st.Calls)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  %-12s %12s\n", "total", s.Total().Round(time.Microsecond))
	b.WriteString("pipeline counters:\n")
	for _, c := range s.Counters {
		if c.Value == 0 && !s.Verbose {
			continue
		}
		fmt.Fprintf(&b, "  %-18s %10d\n", c.Name, c.Value)
	}
	hdr := false
	for _, h := range s.Hists {
		if h.Count == 0 && !s.Verbose {
			continue
		}
		if !hdr {
			b.WriteString("pipeline latencies (p50/p95/p99/max):\n")
			hdr = true
		}
		fmt.Fprintf(&b, "  %-20s %10s %10s %10s %10s  (n=%d)\n", h.Name,
			h.P50.Round(time.Microsecond), h.P95.Round(time.Microsecond),
			h.P99.Round(time.Microsecond), h.Max.Round(time.Microsecond), h.Count)
	}
	return b.String()
}
