package katara

// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation (§7, appendices B–D), plus ablation benches for the design
// choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark measures the wall-clock of regenerating its experiment
// over a shared small environment; kexp prints the corresponding numbers.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"katara/internal/annotation"
	"katara/internal/cleaning"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/experiments"
	"katara/internal/pattern"
	"katara/internal/repair"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/validation"
	"katara/internal/workload"
	"katara/internal/world"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Config{
			Seed: 7,
			World: world.Config{
				Persons: 150, Players: 80, Clubs: 16, Universities: 40,
				Films: 40, Books: 40,
			},
			Scale:       0.02,
			MaxRows:     40,
			PGMMaxCells: 4000,
		})
	})
	return benchEnv
}

// --- Table 1 ---

func BenchmarkTable1Characteristics(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(e)
	}
}

// --- Table 2 / Table 3: discovery quality and efficiency per algorithm ---

func benchDiscovery(b *testing.B, run func(e *experiments.Env, c *discovery.Candidates) []*pattern.Pattern) {
	e := env(b)
	ds := e.Dataset("WebTables")
	kb := e.KBs[0]
	cands := make([]*discovery.Candidates, len(ds.Specs))
	for i, spec := range ds.Specs {
		cands[i] = discovery.Generate(spec.Table, e.Stats[kb.Name], discovery.Options{
			MaxCandidates: e.Cfg.MaxCandidates, MaxRows: e.Cfg.MaxRows,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			run(e, c)
		}
	}
}

func BenchmarkTable2DiscoveryRankJoin(b *testing.B) {
	benchDiscovery(b, func(e *experiments.Env, c *discovery.Candidates) []*pattern.Pattern {
		return discovery.TopK(c, 1)
	})
}

func BenchmarkTable2DiscoverySupport(b *testing.B) {
	benchDiscovery(b, func(e *experiments.Env, c *discovery.Candidates) []*pattern.Pattern {
		return discovery.SupportTopK(c, 1)
	})
}

func BenchmarkTable2DiscoveryMaxLike(b *testing.B) {
	benchDiscovery(b, func(e *experiments.Env, c *discovery.Candidates) []*pattern.Pattern {
		return discovery.MaxLikeTopK(c, 1)
	})
}

func BenchmarkTable2DiscoveryPGM(b *testing.B) {
	benchDiscovery(b, func(e *experiments.Env, c *discovery.Candidates) []*pattern.Pattern {
		return discovery.PGMTopK(c, 1, discovery.PGMOptions{MaxCells: e.Cfg.PGMMaxCells})
	})
}

// BenchmarkTable3CandidateGeneration isolates the KB-lookup cost that
// dominates Table 3 for Support/MaxLike/RankJoin.
func BenchmarkTable3CandidateGeneration(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0] // Person
	kb := e.KBs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.Generate(spec.Table, e.Stats[kb.Name], discovery.Options{
			MaxCandidates: e.Cfg.MaxCandidates, MaxRows: e.Cfg.MaxRows,
		})
	}
}

// --- Figure 6 / Figure 11: top-k curves ---

func BenchmarkFigure6TopK(b *testing.B) {
	e := env(b)
	spec := e.Dataset("WebTables").Specs[0]
	kb := e.KBs[0]
	c := discovery.Generate(spec.Table, e.Stats[kb.Name], discovery.Options{
		MaxCandidates: e.Cfg.MaxCandidates, MaxRows: e.Cfg.MaxRows,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.TopK(c, 10)
	}
}

// --- Figure 7 / Table 4: pattern validation ---

func benchValidation(b *testing.B, muvf bool) {
	e := env(b)
	spec := e.Dataset("WebTables").Specs[0]
	kb := e.KBs[0]
	c := discovery.Generate(spec.Table, e.Stats[kb.Name], discovery.Options{
		MaxCandidates: e.Cfg.MaxCandidates, MaxRows: e.Cfg.MaxRows,
	})
	ps := discovery.TopK(c, 10)
	if len(ps) == 0 {
		b.Skip("no patterns")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := &validation.Validator{
			KB:     kb.Store,
			Table:  spec.Table,
			Crowd:  crowd.Perfect(3),
			Oracle: workload.SpecOracle{Spec: spec, KB: kb},
			Rng:    newRand(int64(i)),
		}
		if muvf {
			v.MUVF(ps)
		} else {
			v.AVI(ps)
		}
	}
}

func BenchmarkFigure7ValidationMUVF(b *testing.B) { benchValidation(b, true) }

func BenchmarkTable4SchedulingAVI(b *testing.B) { benchValidation(b, false) }

// --- Table 5: annotation ---

func BenchmarkTable5Annotation(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0]
	kb := e.KBs[1]
	p := spec.TruthPattern(kb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ann := &annotation.Annotator{
			KB:      kb.Store,
			Pattern: p,
			Crowd:   crowd.Perfect(3),
			Oracle:  workload.WorldOracle{W: e.World, KB: kb},
		}
		ann.Annotate(spec.Table)
	}
}

// --- Figure 8 / Table 6 / Table 7: repair ---

func repairFixture(b *testing.B) (*experiments.Env, *workload.TableSpec, *workload.KB, *table.Table, *repair.Index) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0] // Person
	kb := e.KBs[1]                                 // DBpedia
	p := spec.TruthPattern(kb)
	ix := repair.BuildIndex(kb.Store, p, repair.Options{})
	dirty := spec.Table.Clone()
	table.InjectErrors(dirty, p.Columns(), 0.10, newRand(3))
	return e, spec, kb, dirty, ix
}

func BenchmarkFigure8RepairTopK(b *testing.B) {
	_, _, _, dirty, ix := repairFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < dirty.NumRows(); r += 7 {
			ix.TopK(dirty.Rows[r], 3)
		}
	}
}

func BenchmarkTable6RepairKatara(b *testing.B) {
	_, _, _, dirty, ix := repairFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < dirty.NumRows(); r++ {
			ix.TopK(dirty.Rows[r], 3)
		}
	}
}

func BenchmarkTable6RepairEQ(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0]
	fds := experiments.AppendixDFDs(spec.Table.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirty := spec.Table.Clone()
		table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, newRand(int64(i)))
		b.StartTimer()
		cleaning.EQ(dirty, fds)
	}
}

func BenchmarkTable6RepairSCARE(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirty := spec.Table.Clone()
		table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, newRand(int64(i)))
		b.StartTimer()
		cleaning.SCARE(dirty, []int{0}, []int{1, 2, 3}, cleaning.SCAREOptions{})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationRankJoinVsExhaustive compares the best-first rank join
// with the exhaustive Cartesian scoring it avoids.
func BenchmarkAblationRankJoinVsExhaustive(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[2] // University (3 columns)
	kb := e.KBs[0]
	c := discovery.Generate(spec.Table, e.Stats[kb.Name], discovery.Options{
		MaxCandidates: 6, MaxRows: e.Cfg.MaxRows,
	})
	b.Run("RankJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.TopK(c, 3)
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := discovery.ExhaustiveTopK(c, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCoherence compares full scoring with naiveScore (§4.2).
func BenchmarkAblationCoherence(b *testing.B) {
	e := env(b)
	spec := e.Dataset("WebTables").Specs[0]
	kb := e.KBs[0]
	c := discovery.Generate(spec.Table, e.Stats[kb.Name], discovery.Options{
		MaxCandidates: e.Cfg.MaxCandidates, MaxRows: e.Cfg.MaxRows,
	})
	b.Run("FullScore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.TopK(c, 3)
		}
	})
	b.Run("NaiveScore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.TopKNaive(c, 3)
		}
	})
}

// BenchmarkAblationInvertedLists compares Algorithm 4 with the naive
// all-instance-graphs scan it improves on (§6.2).
func BenchmarkAblationInvertedLists(b *testing.B) {
	_, _, _, dirty, ix := repairFixture(b)
	row := dirty.Rows[0]
	b.Run("InvertedLists", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.TopK(row, 3)
		}
	})
	b.Run("NaiveScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.TopKNaive(row, 3)
		}
	})
}

// BenchmarkAblationEnrichment measures annotation with and without the KB
// enrichment feedback loop (Table 5's redundancy effect).
func BenchmarkAblationEnrichment(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0]
	for _, enrich := range []bool{false, true} {
		name := "Off"
		if enrich {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kb := workload.DBpediaLike(e.World, 7+102)
				p := spec.TruthPattern(kb)
				ann := &annotation.Annotator{
					KB:      kb.Store,
					Pattern: p,
					Crowd:   crowd.Perfect(3),
					Oracle:  workload.WorldOracle{W: e.World, KB: kb},
					Enrich:  enrich,
				}
				b.StartTimer()
				ann.Annotate(spec.Table)
			}
		})
	}
}

// BenchmarkParallelGeneration compares sequential candidate generation with
// the sharded GenerateParallel — the single-machine analogue of the paper's
// 30-machine distribution (§7.1). With workers = GOMAXPROCS the parallel
// path falls back to sequential on single-core machines; the speedup is
// only visible on multicore hosts and on tables with distinct values
// (value-redundant tables like Person are already collapsed by the
// sequential run's per-value cache).
func BenchmarkParallelGeneration(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[1] // Soccer (distinct players)
	kb := e.KBs[1]                                 // DBpedia covers soccer
	opts := discovery.Options{MaxCandidates: e.Cfg.MaxCandidates, MaxRows: 0}
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.Generate(spec.Table, e.Stats[kb.Name], opts)
		}
	})
	b.Run(fmt.Sprintf("AutoWorkers%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.GenerateParallel(spec.Table, e.Stats[kb.Name], opts, 0)
		}
	})
}

// BenchmarkParallelAnnotation compares serial per-tuple KB-coverage
// evaluation with the Annotator's worker pool. Enrichment is off so the KB
// stays immutable and every row's coverage comes from the precompute pass —
// the regime where the fan-out pays (an enriching run re-evaluates serially
// every Match an enrichment could have changed). As with GenerateParallel, the
// speedup only materialises on multicore hosts; on one core the pool is pure
// scheduling overhead.
func BenchmarkParallelAnnotation(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0] // Person
	kb := e.KBs[1]                                 // DBpedia
	p := spec.TruthPattern(kb)
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ann := &annotation.Annotator{
					KB:      kb.Store,
					Pattern: p,
					Crowd:   crowd.Perfect(3),
					Oracle:  workload.WorldOracle{W: e.World, KB: kb},
					Workers: workers,
				}
				ann.Annotate(spec.Table)
			}
		}
	}
	b.Run("Serial", bench(1))
	b.Run(fmt.Sprintf("Workers%d", runtime.GOMAXPROCS(0)), bench(runtime.GOMAXPROCS(0)))
}

// BenchmarkParallelRepairIndex compares serial instance-graph enumeration
// with the root-sharded worker pool in BuildIndex (multicore hosts only;
// see BenchmarkParallelAnnotation).
func BenchmarkParallelRepairIndex(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0] // Person
	kb := e.KBs[1]                                 // DBpedia
	p := spec.TruthPattern(kb)
	kb.Store.WarmClosures()
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repair.BuildIndex(kb.Store, p, repair.Options{Workers: workers})
			}
		}
	}
	b.Run("Serial", bench(1))
	b.Run(fmt.Sprintf("Workers%d", runtime.GOMAXPROCS(0)), bench(runtime.GOMAXPROCS(0)))
}

// BenchmarkTelemetryOverhead pins the nil-pipeline contract: annotating with
// instrumentation disabled must cost the same as before the telemetry layer
// existed, and enabling it must stay cheap (atomic adds only).
func BenchmarkTelemetryOverhead(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[0]
	kb := e.KBs[1]
	p := spec.TruthPattern(kb)
	bench := func(tel *telemetry.Pipeline) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ann := &annotation.Annotator{
					KB:        kb.Store,
					Pattern:   p,
					Crowd:     crowd.Perfect(3),
					Oracle:    workload.WorldOracle{W: e.World, KB: kb},
					Telemetry: tel,
				}
				ann.Annotate(spec.Table)
			}
		}
	}
	b.Run("Disabled", bench(nil))
	b.Run("Enabled", bench(telemetry.New()))
}

// BenchmarkDisabledInstrumentation asserts the acceptance criterion that the
// disabled (nil-*Pipeline) path of every instrumentation primitive — spans,
// attributes, timers, histogram observations, counters — is allocation-free.
// ReportAllocs makes the claim visible in bench output; the explicit check
// fails the benchmark outright on any regression.
func BenchmarkDisabledInstrumentation(b *testing.B) {
	var tel *telemetry.Pipeline
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tel.StartSpan("op")
		sp.SetInt("k", int64(i))
		sp.SetStr("s", "v")
		sp.End()
		ps := tel.PushSpan("stage")
		ps.End()
		start := tel.StartTimer()
		tel.ObserveSince(telemetry.HistCrowdQuestion, start)
		tel.Observe(telemetry.HistRankJoinIter, time.Millisecond)
		tel.Inc(telemetry.CrowdQuestions)
		tel.EndStage(telemetry.StageAnnotate, tel.StartStage(telemetry.StageAnnotate))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := tel.StartSpan("op")
		sp.SetInt("k", 1)
		sp.End()
		tel.Observe(telemetry.HistRepairTopK, time.Microsecond)
	}); allocs != 0 {
		b.Fatalf("disabled instrumentation allocates %.1f per op", allocs)
	}
}

// BenchmarkDisabledProvenance asserts the acceptance criterion that the
// disabled (nil-*Recorder) path of every provenance primitive is
// allocation-free: a run without -provenance/-explain must pay nothing for
// the lineage layer. The explicit AllocsPerRun check fails the benchmark
// outright on any regression.
func BenchmarkDisabledProvenance(b *testing.B) {
	var rec *ProvenanceRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec.Enabled() {
			b.Fatal("nil recorder reports enabled")
		}
		rec.RecordPattern("p", 1.0, true)
		rec.RecordValidationStep("type(0)", 0.5, 2, "city", false)
		rec.SetRowUnits(0, nil, false)
		_ = rec.UnitOf(i)
		_ = rec.BeginTuple(i)
		rec.RecordCheck(i, "node", "kb", nil, "", 0, true)
		rec.RecordVerdict(i, "validated_by_kb", false, false)
		rec.RecordRepair(i, 3, nil)
		_ = rec.StartQuestion("bool", "", nil)
		rec.AddVote(1, 0, 0, 1.0)
		rec.FinishQuestion(1, 0, 0, 0, 0, 0, "")
		_ = rec.LastQuestionID()
		_ = rec.Child()
		rec.Merge(nil)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = rec.BeginTuple(1)
		rec.RecordCheck(1, "edge", "crowd", nil, "", 2, false)
		rec.RecordVerdict(1, "erroneous", false, false)
		rec.RecordRepair(1, 5, nil)
	}); allocs != 0 {
		b.Fatalf("disabled provenance allocates %.1f per op", allocs)
	}
}

// BenchmarkEndToEndClean measures the full public-API pipeline. Latency
// percentiles from the run's own telemetry ride along as custom metrics, so
// benchsave snapshots carry distributional data, not just ns/op.
func BenchmarkEndToEndClean(b *testing.B) {
	e := env(b)
	spec := e.Dataset("RelationalTables").Specs[2] // University
	kb := e.KBs[0]
	tel := telemetry.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cleaner := NewCleaner(kb.Store, crowd.Perfect(3), Options{
			FactOracle: workload.WorldOracle{W: e.World, KB: kb},
			Pipeline:   tel,
		})
		if _, err := cleaner.Clean(spec.Table); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h := tel.Hist(telemetry.HistAnnotateTuple); h.Count() > 0 {
		b.ReportMetric(float64(h.Quantile(0.50)), "annotate-p50-ns/op")
		b.ReportMetric(float64(h.Quantile(0.99)), "annotate-p99-ns/op")
	}
	if h := tel.Hist(telemetry.HistRepairTopK); h.Count() > 0 {
		b.ReportMetric(float64(h.Quantile(0.99)), "topk-p99-ns/op")
	}
}

// --- Full paper scale: Person at 316K rows (§7 Table 1) ---

var (
	fullScaleOnce sync.Once
	fullScaleSpec *workload.TableSpec
)

// fullScaleTable builds the paper-sized dirty Person spec once: 316K rows
// sampled with replacement from the environment's person pool (the paper's
// redundancy), 10% injected errors in the pattern-covered columns (§7.4).
func fullScaleTable(b *testing.B) *workload.TableSpec {
	b.Helper()
	e := env(b)
	fullScaleOnce.Do(func() {
		spec := workload.PersonTable(e.World, 308, workload.PaperPersonRows)
		table.InjectErrors(spec.Table, []int{1, 2, 3}, 0.10, newRand(309))
		fullScaleSpec = spec
	})
	return fullScaleSpec
}

// BenchmarkAppendDelta measures the incremental path at paper scale: a
// session that has already cleaned the 316K-row Person table absorbs a
// 512-row appended batch. The delta is sampled with replacement from the
// base rows — the paper's redundancy regime — so its signatures are already
// crowd-decided and the append rides the session memos: no new questions, no
// enrichment, no re-rank of earlier repairs. (A delta with genuinely new
// values enriches the KB and re-ranks everything — correct, batch-equivalent,
// and priced like a batch run; the session's win is the redundant case.)
// The timed loop covers only Cleaner.Append; one batch clean of the merged
// table runs outside the timer as the reference, and the run fails unless
// the measured append costs less than 10% of it — the headroom that
// justifies the session machinery at all. The ratio rides along as a custom
// metric so benchsave snapshots track it.
func BenchmarkAppendDelta(b *testing.B) { benchAppendDelta(b, false) }

// BenchmarkAppendDeltaProvenance is BenchmarkAppendDelta with a provenance
// recorder on the session and on the reference clean, the configuration the
// benchmark of record's person-append workload and katarad run: each Append
// also extends the recorder's row→unit mapping.
func BenchmarkAppendDeltaProvenance(b *testing.B) { benchAppendDelta(b, true) }

func benchAppendDelta(b *testing.B, provenance bool) {
	e := env(b)
	spec := fullScaleTable(b)
	const deltaRows = 512
	base := spec.Table
	rng := newRand(401)
	delta := make([][]string, deltaRows)
	for i := range delta {
		delta[i] = base.Rows[rng.Intn(base.NumRows())]
	}
	merged := base.Clone()
	for _, r := range delta {
		merged.Append(r...)
	}

	newOpts := func(kb *workload.KB, incremental bool) Options {
		opts := Options{
			FactOracle:       workload.WorldOracle{W: e.World, KB: kb},
			ValidationOracle: workload.SpecOracle{Spec: spec, KB: kb},
			Workers:          -1,
			Shards:           -1,
			MaxRows:          500, // cap discovery sampling; patterns saturate long before 316K rows
			Incremental:      incremental,
		}
		if provenance {
			opts.Provenance = NewProvenance()
		}
		return opts
	}

	// Reference: one batch clean of the merged table on a fresh KB.
	kbRef := workload.DBpediaLike(e.World, 7)
	t0 := time.Now()
	if _, err := NewCleaner(kbRef.Store, crowd.Perfect(3), newOpts(kbRef, false)).Clean(merged); err != nil {
		b.Fatal(err)
	}
	fullDur := time.Since(t0)

	// Each iteration appends onto a fresh session (built outside the timer):
	// repeated appends on one session can legitimately drift — MUVF's
	// validation sampling depends on table size, so a later replay may miss
	// the memo and correctly fall back to a full re-clean — and a drifted
	// iteration would measure the batch pipeline, not the append path.
	newSession := func() *Cleaner {
		kb := workload.DBpediaLike(e.World, 7)
		cl := NewCleaner(kb.Store, crowd.Perfect(3), newOpts(kb, true))
		if _, err := cl.Clean(base); err != nil {
			b.Fatal(err)
		}
		return cl
	}
	cl := newSession()
	t1 := time.Now()
	if _, err := cl.Append(delta); err != nil {
		b.Fatal(err)
	}
	appendDur := time.Since(t1)
	// A drifted append recleans the whole merged table and lands near 100%
	// of the reference cost, so the bound doubles as a no-drift assertion.
	if appendDur*10 >= fullDur {
		b.Fatalf("append of %d rows took %v, full re-clean %v; append must stay under 10%%",
			deltaRows, appendDur, fullDur)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := newSession()
		b.StartTimer()
		if _, err := cl.Append(delta); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer discards metrics reported before it. The
	// /op suffix is what benchsave records.
	b.ReportMetric(float64(appendDur)/float64(fullDur), "append-vs-full-ratio/op")
}

// BenchmarkPersonFullScale is the tentpole measurement: the end-to-end
// pipeline over the full 316K-row Person table on one machine, dedup on.
// Alongside time/op and allocs/op it reports the memory the Go runtime has
// obtained from the OS, the table's distinct-signature count, and the crowd
// question counts with and without distinct-signature execution (the
// dedup-off reference run happens after the timed loop, outside the timer);
// the run fails unless dedup asks strictly fewer questions.
func BenchmarkPersonFullScale(b *testing.B) {
	e := env(b)
	spec := fullScaleTable(b)
	dirty := spec.Table
	// Enrichment mutates the KB, and Store.Clone does not preserve term IDs
	// (the oracles translate through them), so every run rebuilds the same
	// deterministic KB cmd/katara -paper-scale uses — DBpedia-shaped, seed 7,
	// modelling every relation the Person pattern needs. The rebuild is ~2K
	// triples, noise next to the clean itself, and bench and CLI end up
	// measuring the identical workload.
	runOnce := func(dedup bool) *Report {
		kb := workload.DBpediaLike(e.World, 7)
		d := dedup
		r, err := NewCleaner(kb.Store, crowd.Perfect(3), Options{
			FactOracle:       workload.WorldOracle{W: e.World, KB: kb},
			ValidationOracle: workload.SpecOracle{Spec: spec, KB: kb},
			Workers:          -1,
			Shards:           -1,
			MaxRows:          500, // cap discovery sampling; patterns saturate long before 316K rows
			Dedup:            &d,
		}).Clean(dirty)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	var rep *Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = runOnce(true)
	}
	b.StopTimer()
	// MemStats.Sys is the address space the runtime has reserved from the
	// OS so far (heap, stacks, GC metadata), read before the dedup-off
	// reference run can inflate it. It only grows, so it bounds the dedup-on
	// runs' heap from above, but it is not the resident peak: the benchmark
	// of record reports that as peak_rss_mib (VmHWM, bench/README.md).
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	offRep := runOnce(false)
	b.ReportMetric(float64(m.Sys), "sys-bytes/op")
	b.ReportMetric(float64(dirty.Interned().NumGroups()), "distinct-signatures/op")
	b.ReportMetric(float64(rep.QuestionsAsked), "questions-dedup/op")
	b.ReportMetric(float64(offRep.QuestionsAsked), "questions-nodedup/op")
	if rep.QuestionsAsked >= offRep.QuestionsAsked {
		b.Fatalf("dedup asked %d questions, no-dedup asked %d; dedup must be strictly lower at full scale",
			rep.QuestionsAsked, offRep.QuestionsAsked)
	}
}
