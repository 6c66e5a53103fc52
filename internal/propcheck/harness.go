package propcheck

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"katara"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/workload"
)

// RunConfig is one cell of the differential matrix. Within a seed, every
// cell must produce a byte-identical canonical Report (fault accounting and
// timings excluded — see Canonical).
type RunConfig struct {
	// Workers is katara.Options.Workers, the run's parallelism: 1 serial,
	// >1 fanned out over that many contiguous ranges per stage, -1 resolves
	// to GOMAXPROCS. The invariant `parallel(T, N) ≡ serial(T)` —
	// byte-identical canonical reports for every parallelism — rides on the
	// matrix comparison.
	Workers int
	// Faults routes crowd deliveries through a seeded FaultInjector
	// (abandonment + transient failures, zero latency) with retry enabled.
	Faults bool
	// Telemetry enables the counter/histogram pipeline.
	Telemetry bool
	// BudgetQuestions, when > 0, caps crowd questions so the run exercises
	// the degradation paths; Degrade picks the policy.
	BudgetQuestions int
	Degrade         katara.DegradePolicy
	// DedupOff disables distinct-signature execution (katara.Options.Dedup),
	// forcing per-row coverage evaluation, per-row crowd questions and
	// per-row repair ranking. Dedup-off runs are compared against the
	// dedup-on baseline on CanonicalSemantic — identical annotations, facts
	// and repairs, question counts excluded (dedup's whole point is asking
	// fewer) — plus the question-count inequality dedup <= no-dedup.
	DedupOff bool
	// Provenance enables the decision-lineage recorder. Recording cells
	// must match the non-recording baseline byte-identically on Canonical —
	// observation must not perturb the pipeline.
	Provenance bool
}

func (c RunConfig) String() string {
	s := fmt.Sprintf("workers=%d faults=%v telemetry=%v", c.Workers, c.Faults, c.Telemetry)
	if c.BudgetQuestions > 0 {
		s += fmt.Sprintf(" budget=%d degrade=%v", c.BudgetQuestions, c.Degrade)
	}
	if c.DedupOff {
		s += " dedup=off"
	}
	if c.Provenance {
		s += " provenance"
	}
	return s
}

// parallelisms returns the parallelism axis of the matrix: {1, 2, 4,
// GOMAXPROCS}, deduplicated after resolution (on a single-core host
// GOMAXPROCS collapses into 1).
func parallelisms() []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// Matrix returns the differential configurations for one seed: every
// parallelism crossed with fault injection on/off and telemetry on/off.
func Matrix() []RunConfig {
	var out []RunConfig
	for _, w := range parallelisms() {
		for _, faults := range []bool{false, true} {
			for _, tel := range []bool{false, true} {
				out = append(out, RunConfig{Workers: w, Faults: faults, Telemetry: tel})
			}
		}
	}
	return out
}

// oracleTransport pins every delivered answer to the question's ground
// truth, with an optional inner transport (the fault injector) deciding
// whether the delivery happens at all. The matrix needs this: fault
// injection perturbs how often the crowd's rand stream is consulted, so
// worker answers must depend only on the question — not on the stream —
// for fault-on and fault-off runs to stay semantically identical.
type oracleTransport struct {
	inner crowd.Transport
}

func (o oracleTransport) Deliver(q crowd.Question, w crowd.Worker, _ func() int) crowd.Delivery {
	truth := func() int { return q.Truth }
	if o.inner != nil {
		return o.inner.Deliver(q, w, truth)
	}
	return crowd.Delivery{Answer: truth()}
}

// newOracleCrowd is the harness's stock crowd: five perfect workers whose
// answers come straight from each question's ground truth.
func newOracleCrowd() *crowd.Crowd {
	return crowd.Perfect(5, crowd.WithTransport(oracleTransport{}))
}

// Run cleans the scenario's dirty table under one configuration and
// returns the report plus the KB store the run enriched. Every run gets
// its own clone of the pristine KB — the whole KB, not just the store,
// because rdf.Store.Clone renumbers term IDs and the oracles must answer
// in the cleaned store's ID space.
func (s *Scenario) Run(cfg RunConfig) (*katara.Report, *rdf.Store, error) {
	cl, store := s.NewCleaner(cfg, false, nil)
	rep, err := cl.Clean(s.Dirty)
	return rep, store, err
}

// NewCleaner builds the configured cleaner over a fresh clone of the
// pristine KB. With incremental the cleaner keeps a session alive for
// Append/ApplyKBDelta; preAdds are merged into the clone before the cleaner
// sees it — the rebuild-from-merged-KB oracle the incremental KB-delta
// differential compares against.
func (s *Scenario) NewCleaner(cfg RunConfig, incremental bool, preAdds []katara.KBAddition) (*katara.Cleaner, *rdf.Store) {
	kb := s.KB.Clone()
	store := kb.Store
	for _, a := range preAdds {
		obj := rdf.IRI(a.Object)
		if a.Literal {
			obj = rdf.Lit(a.Object)
		}
		store.AddFact(rdf.IRI(a.Subject), rdf.IRI(a.Predicate), obj)
	}

	var transport crowd.Transport = oracleTransport{}
	if cfg.Faults {
		transport = oracleTransport{inner: crowd.NewFaultInjector(katara.FaultConfig{
			Seed:          s.Seed,
			AbandonRate:   0.12,
			TransientRate: 0.12,
		})}
	}
	cr := crowd.Perfect(5, crowd.WithTransport(transport))

	opts := katara.Options{
		Seed:    1,
		Workers: cfg.Workers,
		// Small per-list caps keep the rank-join search space within
		// ExhaustiveTopK's refusal bound so invariant 1 stays checkable.
		MaxCandidates:    4,
		Telemetry:        cfg.Telemetry,
		ValidationOracle: workload.SpecOracle{Spec: s.Spec, KB: kb},
		FactOracle:       workload.WorldOracle{W: s.World, KB: kb},
	}
	if cfg.Faults {
		// Aggressive retry with microsecond backoff: resilience paths get
		// exercised without sleeping through the test budget, and six
		// attempts make a total question failure vanishingly unlikely.
		opts.Retry = katara.RetryPolicy{
			MaxAttempts: 6,
			BaseBackoff: 20 * time.Microsecond,
			MaxBackoff:  100 * time.Microsecond,
		}
	}
	if cfg.BudgetQuestions > 0 {
		opts.Budget = cfg.BudgetQuestions
		opts.Degrade = cfg.Degrade
	}
	if cfg.DedupOff {
		f := false
		opts.Dedup = &f
	}
	if cfg.Provenance {
		opts.Provenance = katara.NewProvenance()
	}
	opts.Incremental = incremental

	return katara.NewCleaner(store, cr, opts), store
}

// SeedResult summarizes one RunSeed for test logging.
type SeedResult struct {
	Seed      int64
	Kind      string
	KBName    string
	Rows      int
	Configs   int
	Erroneous int
	// ExhaustiveSkipped records that the rank-join oracle was skipped
	// because the candidate space exceeded ExhaustiveTopK's bound.
	ExhaustiveSkipped bool
	// NoPattern records that discovery found no pattern (all configs must
	// then agree on ErrNoPattern).
	NoPattern bool
	// KBCoveredRewrites counts repair changes that touch a cell whose type
	// the KB covered — measured, not asserted (see DESIGN.md §12 on why
	// type coverage alone is not evidence of cell correctness).
	KBCoveredRewrites int
	// Questions / QuestionsNoDedup are the crowd question counts of the
	// dedup-on baseline and the dedup-off differential run — the dedup
	// invariant requires Questions <= QuestionsNoDedup.
	Questions        int
	QuestionsNoDedup int
}

// RunSeed generates the scenario for seed and checks the full invariant
// catalog: the differential matrix (byte-identical canonical reports across
// worker counts × faults × telemetry, plus a repeated baseline run for
// determinism), the per-run invariants on the baseline report, the
// rank-join/exhaustive oracle, the repair differentials and the resolver
// cache differential, and a budget-capped degraded run.
func RunSeed(seed int64) (*SeedResult, error) {
	sc := Generate(seed)
	res := &SeedResult{Seed: seed, Kind: sc.Kind, KBName: sc.KBName, Rows: sc.Dirty.NumRows()}

	base := RunConfig{Workers: 1}
	rep, store, err := sc.Run(base)
	if err != nil {
		if !errors.Is(err, katara.ErrNoPattern) {
			return res, fmt.Errorf("baseline %s: %w", base, err)
		}
		res.NoPattern = true
	}

	// Determinism: the identical configuration twice, byte-identical.
	rep2, _, err2 := sc.Run(base)
	if err := sameOutcome(rep, err, rep2, err2); err != nil {
		return res, fmt.Errorf("baseline repeated run diverged: %w", err)
	}

	// Differential matrix: every cell must match the baseline.
	want := Canonical(rep)
	for _, cfg := range Matrix() {
		res.Configs++
		r, _, rerr := sc.Run(cfg)
		if err := sameOutcome(rep, err, r, rerr); err != nil {
			return res, fmt.Errorf("config %s diverged from baseline: %w", cfg, err)
		}
		if got := Canonical(r); !bytes.Equal(want, got) {
			return res, fmt.Errorf("config %s: canonical report differs from baseline\n%s", cfg, canonicalDiff(want, got))
		}
	}

	// Dedup differential: distinct-signature execution (the matrix above
	// runs with the dedup default ON) must change nothing but the question
	// count. Every dedup-off cell must match the baseline on
	// CanonicalSemantic — identical annotations, facts, repairs and
	// degradation — while asking at least as many questions as the deduped
	// baseline; and the dedup-off cells must agree with each other
	// byte-identically on the full Canonical, question count included.
	// With the matrix this is also the footprint differential on every
	// seed: dedup-on at parallelism 4 (coverage precomputed per signature,
	// kept across enrichment by its footprint, verdicts replayed for
	// duplicates) equals dedup-off at parallelism 1 (every row evaluated
	// fresh) on CanonicalSemantic.
	semWant := CanonicalSemantic(rep)
	var wantOff []byte
	for _, cfg := range []RunConfig{
		{Workers: 1, DedupOff: true},
		{Workers: 4, Faults: true, Telemetry: true, DedupOff: true},
		{Workers: 2, Telemetry: true, DedupOff: true},
	} {
		res.Configs++
		r, _, rerr := sc.Run(cfg)
		if err := sameOutcome(rep, err, r, rerr); err != nil {
			return res, fmt.Errorf("config %s diverged from baseline: %w", cfg, err)
		}
		if got := CanonicalSemantic(r); !bytes.Equal(semWant, got) {
			return res, fmt.Errorf("config %s: semantic report differs from dedup-on baseline\n%s", cfg, canonicalDiff(semWant, got))
		}
		if full := Canonical(r); wantOff == nil {
			wantOff = full
		} else if !bytes.Equal(wantOff, full) {
			return res, fmt.Errorf("config %s: dedup-off cells disagree\n%s", cfg, canonicalDiff(wantOff, full))
		}
		if rep != nil && r != nil {
			if rep.QuestionsAsked > r.QuestionsAsked {
				return res, fmt.Errorf("config %s: dedup-on asked more questions (%d) than dedup-off (%d)",
					cfg, rep.QuestionsAsked, r.QuestionsAsked)
			}
			res.QuestionsNoDedup = r.QuestionsAsked
		}
	}
	if rep != nil {
		res.Questions = rep.QuestionsAsked
	}

	// Provenance differential: recording the decision lineage must not
	// perturb the pipeline — every recording cell matches the non-recording
	// baseline byte-identically on Canonical — and at every parallelism the
	// lineage journal is byte-identical to the serial recording run's with
	// the same fault setting (the range-order Child/Merge is deterministic).
	// Journals are compared within a fault setting, not across: injected
	// faults add retries and abandonments to the recorded questions. Each
	// recording run's lineage must lint and replay: checkProvenance.
	var provCells []RunConfig
	for _, faults := range []bool{false, true} {
		for _, w := range parallelisms() {
			provCells = append(provCells, RunConfig{Workers: w, Faults: faults, Telemetry: w > 1, Provenance: true})
		}
	}
	wantJournal := map[bool][]byte{}
	for _, cfg := range provCells {
		res.Configs++
		r, _, rerr := sc.Run(cfg)
		if err := sameOutcome(rep, err, r, rerr); err != nil {
			return res, fmt.Errorf("config %s diverged from baseline: %w", cfg, err)
		}
		if got := Canonical(r); !bytes.Equal(want, got) {
			return res, fmt.Errorf("config %s: canonical report differs from baseline\n%s", cfg, canonicalDiff(want, got))
		}
		if r == nil {
			continue
		}
		journal, err := checkProvenance(sc, r)
		if err != nil {
			return res, fmt.Errorf("config %s: %w", cfg, err)
		}
		if serial, ok := wantJournal[cfg.Faults]; !ok {
			wantJournal[cfg.Faults] = journal
		} else if !bytes.Equal(serial, journal) {
			return res, fmt.Errorf("config %s: provenance journal differs from the serial recording run", cfg)
		}
	}

	// Crash/replay differential: a journaled job interrupted mid-run and
	// re-executed from replay — then served from a further restart without
	// re-running — must match the crash-free oracle byte-for-byte. Runs for
	// ErrNoPattern scenarios too: a failed job's document must also survive
	// replay unchanged.
	if err := checkJournalReplay(sc); err != nil {
		return res, fmt.Errorf("journal replay: %w", err)
	}

	if res.NoPattern {
		return res, nil
	}

	res.Erroneous = len(erroneousRows(rep))

	// Incremental differential: chained Clean+Append sessions across the
	// parallelism/dedup configurations, ApplyKBDelta vs merged-KB rebuild,
	// and a mixed Clean→delta→Append chain — all must match the batch run
	// over the merged inputs on CanonicalSemantic (see checkIncremental).
	if err := checkIncremental(sc, res, rep); err != nil {
		return res, fmt.Errorf("incremental: %w", err)
	}

	// Per-run invariants on the baseline report.
	if err := checkAnnotationPartition(sc, rep, false, 0); err != nil {
		return res, fmt.Errorf("annotation partition: %w", err)
	}
	if err := checkRepairScope(sc, rep); err != nil {
		return res, fmt.Errorf("repair scope: %w", err)
	}
	res.KBCoveredRewrites = countKBCoveredRewrites(rep)

	// Repair retrieval invariants need the index the run used: rebuild it
	// on the enriched store with the validated pattern (BuildIndex is
	// deterministic, so this is the same index).
	if err := checkRepairRetrieval(sc, rep, store); err != nil {
		return res, fmt.Errorf("repair retrieval: %w", err)
	}

	// Discovery-level oracles on the pristine KB: rank-join vs exhaustive
	// enumeration, then resolver cache on ≡ off for both candidates and
	// annotations (stats and base candidates shared between the two).
	stats := kbstats.New(sc.KB.Store)
	cands := discovery.Generate(sc.Dirty, stats, discovery.Options{MaxCandidates: 4})
	skipped, err := checkRankJoin(cands)
	if err != nil {
		return res, fmt.Errorf("rank-join oracle: %w", err)
	}
	res.ExhaustiveSkipped = skipped
	if err := checkResolverDifferential(sc, stats, cands); err != nil {
		return res, fmt.Errorf("resolver differential: %w", err)
	}

	// Degraded run: cap the question budget at half of what the baseline
	// spent and require the MarkUnknown policy to hold its contract.
	if rep.QuestionsAsked > 1 {
		dcfg := RunConfig{
			Workers:         1,
			BudgetQuestions: rep.QuestionsAsked / 2,
			Degrade:         katara.DegradeMarkUnknown,
		}
		drep, _, derr := sc.Run(dcfg)
		if derr != nil && !errors.Is(derr, katara.ErrNoPattern) {
			return res, fmt.Errorf("degraded run %s: %w", dcfg, derr)
		}
		if derr == nil {
			if err := checkAnnotationPartition(sc, drep, true, katara.DegradeMarkUnknown); err != nil {
				return res, fmt.Errorf("degraded annotation partition: %w", err)
			}
			if err := checkRepairScope(sc, drep); err != nil {
				return res, fmt.Errorf("degraded repair scope: %w", err)
			}
		}
	}

	return res, nil
}

// sameOutcome compares two (report, error) pairs: both must fail the same
// way or both succeed.
func sameOutcome(a *katara.Report, aerr error, b *katara.Report, berr error) error {
	if (aerr == nil) != (berr == nil) {
		return fmt.Errorf("one run errored, the other did not: %v vs %v", aerr, berr)
	}
	if aerr != nil {
		if aerr.Error() != berr.Error() {
			return fmt.Errorf("different errors: %v vs %v", aerr, berr)
		}
		return nil
	}
	_ = a
	_ = b
	return nil
}

// erroneousRows returns the set of rows the report labelled Erroneous.
func erroneousRows(rep *katara.Report) map[int]bool {
	out := map[int]bool{}
	if rep == nil {
		return out
	}
	for _, t := range rep.Annotations {
		if t.Label == katara.Erroneous {
			out[t.Row] = true
		}
	}
	return out
}
