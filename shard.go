// Pipeline orchestration: runClean drives discover → validate → annotate →
// repair for CleanContext, fanning the embarrassingly parallel stages out at
// the run's one parallelism value (Options.Workers) through internal/fanout.
//
// The split follows the stages' data dependencies:
//
//   - candidate generation collects per-row KB evidence over contiguous row
//     ranges, then scores the whole table once — the pattern never depends
//     on the parallelism;
//   - pattern validation runs ONCE — it is crowd-serial by construction;
//   - annotation's step-1 KB coverage (§6.1) is a pure function of the
//     read-only KB and one tuple, so it fans out across contiguous ranges;
//     step 2 (crowd consultation + enrichment) stays serial in global row
//     order, fed the precomputed coverage;
//   - repair index construction fans instance-graph enumeration out by root
//     resource and merges in root order, then per-row top-k retrieval fans
//     out across ranges of the erroneous rows; the result map is keyed by
//     row, so the merge is order-free.
//
// Each range records into its own child telemetry pipeline and provenance
// recorder, merged in range order after the fan-out joins. Because
// everything the crowd, the budget accounting and KB enrichment can observe
// happens in the same serial order at every parallelism, reports and
// provenance journals are byte-identical across parallelism values — the
// propcheck matrix invariant (DESIGN.md §13).
package katara

import (
	"context"
	"fmt"

	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/fanout"
	"katara/internal/kbstats"
	"katara/internal/provenance"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// runClean is the pipeline orchestrator: telemetry/budget/deadline setup,
// discover → validate → annotate → repair, and the end-of-run accounting.
func (c *Cleaner) runClean(ctx context.Context, t *Table) (*Report, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("katara: empty table")
	}
	if c.opts.Incremental {
		// Snapshot the pristine KB and open a fresh session before the
		// pipeline can enrich anything; captureSession below records the
		// outcome Append/ApplyKBDelta extend.
		c.beginIncremental(t)
	}
	// Evidence lineage (Options.Provenance): the recorder is reset per run
	// and attached to the crowd so every question's votes are captured.
	rec := c.opts.Provenance
	rec.Reset()
	ctx, tel, done := c.startRun(ctx)
	defer done()

	// The resolver cache outlives individual runs; diff its counters so the
	// run's snapshot reports only this run's hits and misses.
	hits0, misses0 := c.resolver.Stats()

	// Root span of the run: the stage spans (and through them every leaf
	// span) nest under it, so the journal reconstructs into one rooted tree.
	root := tel.PushSpan("clean")
	root.SetStr("table", t.Name)
	root.SetInt("rows", int64(t.NumRows()))
	root.SetInt("workers", int64(c.opts.Workers))

	// Distinct-signature view (Options.Dedup, default on): built fresh per
	// run — never cached on the Table, whose Rows callers mutate directly
	// (InjectErrors) with no invalidation hook. Annotation coverage, crowd
	// questions and repair ranking all collapse onto distinct signatures.
	var in *table.Interned
	if *c.opts.Dedup {
		in = t.Interned()
		root.SetInt("signatures", int64(in.NumGroups()))
	}
	if rec.Enabled() {
		// Decision units: signature groups under dedup, rows otherwise.
		units := make([]int, t.NumRows())
		for i := range units {
			if in != nil {
				units[i] = in.GroupOf(i)
			} else {
				units[i] = i
			}
		}
		rec.SetRowUnits(units, in != nil)
	}

	start := tel.StartStage(telemetry.StageDiscover)
	cands := c.generate(t, c.stats, c.resolver, tel)
	candidates := discovery.TopK(cands, c.opts.TopK)
	tel.EndStage(telemetry.StageDiscover, start)
	if len(candidates) == 0 {
		root.End()
		return nil, ErrNoPattern
	}
	if rec.Enabled() {
		for _, cand := range candidates {
			rec.RecordPattern(cand.Key(), cand.Score, false)
		}
	}
	c.crowd.ResetStats()
	rep := &Report{}
	start = tel.StartStage(telemetry.StageValidate)
	p, _, degraded := c.validatePattern(ctx, t, candidates)
	if degraded {
		rep.Degraded.PatternFallback = true
		tel.Inc(telemetry.DegradedDecisions)
	}
	if c.opts.DiscoverPaths {
		p = p.Clone()
		discovery.AttachPathEdges(p, discovery.DiscoverPathEdges(cands))
	}
	if rec.Enabled() && p != nil {
		// The validated (possibly stripped or path-extended) winner.
		rec.RecordPattern(p.Key(), p.Score, true)
	}
	tel.EndStage(telemetry.StageValidate, start)
	start = tel.StartStage(telemetry.StageAnnotate)
	ann := c.annotator(ctx, p, tel)
	ann.Interned = in
	if c.opts.Incremental && c.session != nil {
		// Carry the memo state (questions, coverage, seen facts) on the
		// session so a later Append's delta pass continues where this run
		// left off.
		ann.Session = c.session.ann
	}
	res := ann.Annotate(t)
	tel.EndStage(telemetry.StageAnnotate, start)
	rep.Pattern = p
	rep.Annotations = res.Tuples
	rep.NewFacts = res.NewFacts
	rep.Degraded.Tuples = res.DegradedTuples
	if ctx.Err() != nil {
		// Deadline spent before repair: degrade rather than blow through it.
		rep.Degraded.RepairsSkipped = true
		tel.Inc(telemetry.DegradedDecisions)
	} else {
		start = tel.StartStage(telemetry.StageRepair)
		rep.Repairs = c.repairs(t, p, res.Errors(), tel, in, rec)
		tel.EndStage(telemetry.StageRepair, start)
	}
	rep.Crowd = c.crowd.Stats()
	rep.QuestionsAsked = rep.Crowd.Questions
	hits1, misses1 := c.resolver.Stats()
	tel.Add(telemetry.ResolverHits, hits1-hits0)
	tel.Add(telemetry.ResolverMisses, misses1-misses0)
	root.SetInt("questions", int64(rep.QuestionsAsked))
	root.End()
	rep.Timings = tel.Snapshot()
	rep.Provenance = rec
	if c.opts.Incremental && c.session != nil {
		c.captureSession(t, rep, in)
	}
	return rep, nil
}

// startRun attaches the run's instruments — the telemetry pipeline (the
// caller's Options.Pipeline, a fresh one under Options.Telemetry, or nil) and
// the provenance recorder — to the crowd and resolver, and applies the
// deadline and crowd budget. The returned func detaches them again.
func (c *Cleaner) startRun(ctx context.Context) (context.Context, *telemetry.Pipeline, func()) {
	tel := c.opts.Pipeline
	if tel == nil && c.opts.Telemetry {
		tel = telemetry.New()
	}
	cr, res := c.crowd, c.resolver
	cr.SetTelemetry(tel)
	res.SetTelemetry(tel)
	cr.SetProvenance(c.opts.Provenance)
	cancel := context.CancelFunc(func() {})
	if c.opts.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.opts.Deadline)
	}
	budget := c.opts.Budget > 0 || c.opts.BudgetAssignments > 0
	if budget {
		cr.SetBudget(crowd.NewBudget(c.opts.Budget, c.opts.BudgetAssignments))
	}
	return ctx, tel, func() {
		if budget {
			cr.SetBudget(nil)
		}
		cancel()
		cr.SetProvenance(nil)
		res.SetTelemetry(nil)
		cr.SetTelemetry(nil)
	}
}

// generate runs candidate generation (§4.1) over t against stats and
// resolver, fanned out at the run's parallelism.
func (c *Cleaner) generate(t *Table, stats *kbstats.Stats, resolver *resolve.Cache, tel *telemetry.Pipeline) *discovery.Candidates {
	return discovery.GenerateParallel(t, stats, discovery.Options{
		Threshold:     c.opts.Threshold,
		MaxCandidates: c.opts.MaxCandidates,
		MaxRows:       c.opts.MaxRows,
		MinSupport:    c.opts.MinSupport,
		Telemetry:     tel,
		Resolver:      resolver,
	}, c.opts.Workers)
}

// repairCandidates converts a ranked repair list to its provenance record.
func repairCandidates(reps []Repair) []provenance.Candidate {
	cands := make([]provenance.Candidate, len(reps))
	for j, r := range reps {
		ch := make([]provenance.Change, len(r.Changes))
		for k, cg := range r.Changes {
			ch[k] = provenance.Change{Col: cg.Col, From: cg.From, To: cg.To}
		}
		cands[j] = provenance.Candidate{Graph: r.Graph.ID, Cost: r.Cost, Changes: ch}
	}
	return cands
}

// repairs is the batch §6.2 stage: build the index once, then rank the
// given rows against it. nil when the pattern has no relationships.
func (c *Cleaner) repairs(t *Table, p *Pattern, rows []int, tel *telemetry.Pipeline, in *table.Interned, rec *provenance.Recorder) map[int][]Repair {
	if len(p.Edges) == 0 {
		return nil // no relationships: repairs are undefined (§7.4)
	}
	out := make(map[int][]Repair, len(rows))
	if len(rows) == 0 {
		// An error-free table needs no repairs: skip instance-graph
		// enumeration entirely — on large KBs building the index dwarfs
		// the rest of the pipeline.
		return out
	}
	c.rankRepairs(c.buildRepairIndex(p, tel), t, rows, in, tel, rec, out)
	return out
}

// buildRepairIndex enumerates the instance graphs of p (deterministic at
// every parallelism) and builds the inverted lists, timed as the
// build-index stage.
func (c *Cleaner) buildRepairIndex(p *Pattern, tel *telemetry.Pipeline) *repair.Index {
	start := tel.StartStage(telemetry.StageBuildIndex)
	defer tel.EndStage(telemetry.StageBuildIndex, start)
	return repair.BuildIndex(c.kb, p, repair.Options{
		MaxGraphs: c.opts.RepairMaxGraphs,
		Weights:   c.opts.RepairWeights,
		Workers:   c.opts.Workers,
		Telemetry: tel,
	})
}

// rankRepairs fills out with the top-k repairs of every in-range row of
// rows against ix — shared by the batch stage and incremental sessions.
// With an interned view of t, duplicate rows collapse onto one ranking per
// distinct signature: TopK is a pure function of the tuple's values and the
// read-only index, so the ranked list is computed once and shared by every
// duplicate. Ranking fans out over contiguous ranges of the distinct rows,
// each recording into its own child pipeline (through a shallow index view)
// and child provenance recorder; the provenance record is the ranked
// candidate list per decision unit (the signature group under dedup, the row
// otherwise).
func (c *Cleaner) rankRepairs(ix *repair.Index, t *Table, rows []int, in *table.Interned, tel *telemetry.Pipeline, rec *provenance.Recorder, out map[int][]Repair) {
	if in != nil && in.NumRows() != t.NumRows() {
		in = nil
	}
	unitOf := func(row int) int {
		if in != nil {
			return in.GroupOf(row)
		}
		return row
	}
	// lookup holds the rows actually ranked (the first row of each decision
	// unit, in first-occurrence order); slot maps each input row to its
	// lookup index, -1 for out-of-range rows.
	lookup := make([]int, 0, len(rows))
	slot := make([]int, len(rows))
	seen := make(map[int]int)
	for i, row := range rows {
		if row < 0 || row >= t.NumRows() {
			slot[i] = -1
			continue
		}
		u := unitOf(row)
		li, ok := seen[u]
		if !ok {
			li = len(lookup)
			seen[u] = li
			lookup = append(lookup, row)
		}
		slot[i] = li
	}
	perRow := make([][]Repair, len(lookup))
	fanout.Run("repair-rank", len(lookup), c.opts.Workers, tel, rec, func(part fanout.Part) {
		ixp := ix.WithTelemetry(part.Tel)
		for i := part.Lo; i < part.Hi; i++ {
			reps, considered := ixp.TopKStats(t.Rows[lookup[i]], c.opts.RepairK)
			perRow[i] = reps
			if part.Prov.Enabled() {
				part.Prov.RecordRepair(unitOf(lookup[i]), considered, repairCandidates(reps))
			}
		}
	})
	for i, row := range rows {
		if slot[i] >= 0 {
			out[row] = perRow[slot[i]]
		}
	}
}
