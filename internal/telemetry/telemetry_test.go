package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilPipelineIsInert(t *testing.T) {
	var p *Pipeline
	p.Inc(CrowdQuestions)
	p.Add(KBLookups, 7)
	start := p.StartStage(StageAnnotate)
	if !start.IsZero() {
		t.Fatal("disabled StartStage returned a real time")
	}
	p.EndStage(StageAnnotate, start)
	if p.Get(KBLookups) != 0 {
		t.Fatal("disabled Get != 0")
	}
	if snap := p.Snapshot(); snap != nil {
		t.Fatalf("disabled Snapshot = %v, want nil", snap)
	}
	if (*Snapshot)(nil).Counter("kb-lookups") != 0 {
		t.Fatal("nil Snapshot.Counter != 0")
	}
}

func TestNilPipelineDoesNotAllocate(t *testing.T) {
	var p *Pipeline
	allocs := testing.AllocsPerRun(100, func() {
		p.Inc(CrowdQuestions)
		start := p.StartStage(StageRepair)
		p.EndStage(StageRepair, start)
	})
	if allocs != 0 {
		t.Fatalf("disabled pipeline allocates %.1f per op", allocs)
	}
}

func TestCountersAndStages(t *testing.T) {
	p := New()
	p.Inc(CrowdQuestions)
	p.Add(GraphsEnumerated, 41)
	p.Inc(GraphsEnumerated)
	start := p.StartStage(StageDiscover)
	p.EndStage(StageDiscover, start)
	if got := p.Get(GraphsEnumerated); got != 42 {
		t.Fatalf("GraphsEnumerated = %d, want 42", got)
	}
	snap := p.Snapshot()
	if snap.Counter("graphs-enumerated") != 42 || snap.Counter("crowd-questions") != 1 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if snap.Counter("kb-lookups") != 0 {
		t.Fatal("untouched counter must still appear as 0")
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Stage != "discover" || snap.Stages[0].Calls != 1 {
		t.Fatalf("snapshot stages = %+v", snap.Stages)
	}
	if snap.Stages[0].Duration < 0 {
		t.Fatalf("negative duration %v", snap.Stages[0].Duration)
	}
}

func TestConcurrentCounters(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Inc(KBLookups)
			}
		}()
	}
	wg.Wait()
	if got := p.Get(KBLookups); got != 8000 {
		t.Fatalf("KBLookups = %d, want 8000", got)
	}
}

func TestSnapshotString(t *testing.T) {
	p := New()
	p.Add(CrowdQuestions, 12)
	p.EndStage(StageAnnotate, p.StartStage(StageAnnotate))
	snap := p.Snapshot()
	out := snap.String()
	for _, want := range []string{"annotate", "total", "crowd-questions", "12"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot rendering missing %q:\n%s", want, out)
		}
	}
	// Zero-valued counters are noise on healthy runs: hidden by default,
	// restored by the Verbose toggle.
	if strings.Contains(out, "graphs-enumerated") {
		t.Fatalf("snapshot rendering should omit zero counters by default:\n%s", out)
	}
	snap.Verbose = true
	if out := snap.String(); !strings.Contains(out, "graphs-enumerated") {
		t.Fatalf("verbose snapshot rendering missing zero counter:\n%s", out)
	}
	if (*Snapshot)(nil).String() != "" {
		t.Fatal("nil snapshot should render empty")
	}
}

func TestStableNames(t *testing.T) {
	// Snapshot names are a CLI contract; keep them stable.
	wantCounters := map[Counter]string{
		CrowdQuestions:    "crowd-questions",
		KBLookups:         "kb-lookups",
		GraphsEnumerated:  "graphs-enumerated",
		TuplesAnnotated:   "tuples-annotated",
		RepairsGenerated:  "repairs-generated",
		CrowdRetries:      "crowd-retries",
		CrowdTimeouts:     "crowd-timeouts",
		CrowdAbandonments: "crowd-abandonments",
		CrowdEscalations:  "crowd-escalations",
		DegradedDecisions: "degraded-decisions",
		ResolverHits:      "resolver-hits",
		ResolverMisses:    "resolver-misses",
	}
	for c, want := range wantCounters {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	wantStages := map[Stage]string{
		StageDiscover:   "discover",
		StageValidate:   "validate",
		StageAnnotate:   "annotate",
		StageBuildIndex: "build-index",
		StageRepair:     "repair",
	}
	for s, want := range wantStages {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestPipelineMerge(t *testing.T) {
	a, b := New(), New()
	a.Add(CrowdQuestions, 3)
	b.Add(CrowdQuestions, 4)
	b.Add(TuplesAnnotated, 10)
	a.EndStage(StageAnnotate, a.StartStage(StageAnnotate))
	b.EndStage(StageAnnotate, b.StartStage(StageAnnotate))
	a.Observe(HistRepairTopK, 2*time.Millisecond)
	b.Observe(HistRepairTopK, 8*time.Millisecond)
	b.Observe(HistAnnotateTuple, time.Millisecond)

	a.Merge(b)
	if got := a.Get(CrowdQuestions); got != 7 {
		t.Fatalf("merged crowd-questions = %d, want 7", got)
	}
	if got := a.Get(TuplesAnnotated); got != 10 {
		t.Fatalf("merged tuples-annotated = %d, want 10", got)
	}
	snap := a.Snapshot()
	var annotate *StageTiming
	for i := range snap.Stages {
		if snap.Stages[i].Stage == "annotate" {
			annotate = &snap.Stages[i]
		}
	}
	if annotate == nil || annotate.Calls != 2 {
		t.Fatalf("merged annotate stage = %+v, want 2 calls", annotate)
	}
	h := a.Hist(HistRepairTopK)
	if h.Count() != 2 || h.Sum() != 10*time.Millisecond || h.Max() != 8*time.Millisecond {
		t.Fatalf("merged hist count=%d sum=%v max=%v", h.Count(), h.Sum(), h.Max())
	}
	if a.Hist(HistAnnotateTuple).Count() != 1 {
		t.Fatal("merged annotate-tuple hist missing b's observation")
	}
	// b is untouched by the merge.
	if b.Get(CrowdQuestions) != 4 {
		t.Fatalf("source pipeline mutated: %d", b.Get(CrowdQuestions))
	}

	// Nil on either side is a no-op.
	var nilP *Pipeline
	nilP.Merge(a)
	a.Merge(nil)
	if a.Get(CrowdQuestions) != 7 {
		t.Fatal("nil merge changed counters")
	}
}
