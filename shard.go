// Pipeline orchestration: run drives discover → validate → annotate → repair
// for Clean and Append alike, fanning the embarrassingly parallel stages out
// at the run's one parallelism value (Options.Workers) through
// internal/fanout.
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

	"katara/internal/annotation"
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

// runClean opens a Clean of t: it rejects an empty table, opens a fresh
// incremental session (Options.Incremental) before the pipeline can enrich
// the KB, resets the provenance recorder and drives the pipeline over every
// row.
func (c *Cleaner) runClean(ctx context.Context, t *Table) (*Report, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("katara: empty table")
	}
	if c.opts.Incremental {
		c.beginIncremental(t)
	}
	// The reset keeps drift events, so a re-clean's journal still says why
	// it ran.
	c.opts.Provenance.Reset()
	rep, _, err := c.run(ctx, t, 0)
	return rep, err
}

// run is the pipeline driver Clean and Append share: discover → validate →
// annotate → repair over t, annotating rows [lo, n). A Clean passes lo = 0.
// An Append passes the session's table and its first new row, never 0
// because a session's report covers a non-empty table; it differs from a
// Clean only where the session's contract requires:
//
//   - discovery and validation read the session's KB snapshot, the store a
//     batch run over the merged table starts from, and validation replays
//     the memoised crowd decisions instead of asking. When the replay cannot
//     reproduce the session's pattern, run returns the drift reason and the
//     caller re-cleans from the snapshot;
//   - the pass extends the session's report and interned view, and ranks
//     only its new erroneous rows while the KB has not moved since the
//     session's repair index was built.
func (c *Cleaner) run(ctx context.Context, t *Table, lo int) (*Report, string, error) {
	s := c.session
	appending := lo > 0
	rec := c.opts.Provenance
	ctx, tel, done := c.startRun(ctx)
	defer done()

	kb, resolver := c.kb, resolve.Source(c.resolver)
	rep, span := &Report{}, "clean"
	// Distinct-signature view (Options.Dedup, default on): built fresh per
	// Clean — never cached on the Table, whose Rows callers mutate directly
	// (InjectErrors) with no invalidation hook — and extended in place by an
	// Append. Annotation coverage, crowd questions and repair ranking all
	// collapse onto distinct signatures.
	var in *table.Interned
	if appending {
		// An Append's discovery resolves on the snapshot directly: it is
		// shared, so its frozen layer's memo answers each lookup once.
		kb, resolver = s.base, nil
		rep, span, in = s.report, "append", s.in
		if in != nil {
			in.Extend(t)
		}
	} else if *c.opts.Dedup {
		in = t.Interned()
	}

	// The resolver cache outlives individual runs; diff its counters so the
	// run's snapshot reports only this run's hits and misses.
	hits0, misses0 := c.resolver.Stats()

	// Root span of the run: the stage spans (and through them every leaf
	// span) nest under it, so the journal reconstructs into one rooted tree.
	root := tel.PushSpan(span)
	defer root.End()
	root.SetStr("table", t.Name)
	root.SetInt("rows", int64(t.NumRows()-lo))
	root.SetInt("workers", int64(c.opts.Workers))
	if in != nil {
		root.SetInt("signatures", int64(in.NumGroups()))
	}
	if rec.Enabled() {
		// Decision units of the pass's rows: signature groups under dedup,
		// rows otherwise. The recorder keeps a Clean's mapping, so a
		// session's Clean leaves headroom for its Appends to extend it in
		// place.
		n := t.NumRows()
		size := n - lo
		if s != nil && !appending {
			size += n / 4
		}
		units := make([]int, n-lo, size)
		for i := range units {
			if in != nil {
				units[i] = in.GroupOf(lo + i)
			} else {
				units[i] = lo + i
			}
		}
		rec.SetRowUnits(lo, units, in != nil)
	}

	start := tel.StartStage(telemetry.StageDiscover)
	cands := c.generate(t, kb, resolver, tel)
	candidates := discovery.TopK(cands, topK)
	tel.EndStage(telemetry.StageDiscover, start)
	if len(candidates) == 0 {
		if appending {
			return nil, "no-pattern", nil
		}
		return nil, "", ErrNoPattern
	}
	if rec.Enabled() && !appending {
		for _, cand := range candidates {
			rec.RecordPattern(cand.Key(), cand.Score, false)
		}
	}
	c.crowd.ResetStats()
	start = tel.StartStage(telemetry.StageValidate)
	p, degraded, drift := c.choosePattern(ctx, t, kb, cands, candidates, appending)
	if rec.Enabled() && !appending && p != nil {
		// The validated (possibly stripped or path-extended) winner.
		rec.RecordPattern(p.Key(), p.Score, true)
	}
	tel.EndStage(telemetry.StageValidate, start)
	if drift != "" {
		return nil, drift, nil
	}
	if degraded {
		rep.Degraded.PatternFallback = true
		tel.Inc(telemetry.DegradedDecisions)
	}
	triples := c.kb.NumTriples()
	start = tel.StartStage(telemetry.StageAnnotate)
	ann := c.annotator(ctx, p, tel)
	ann.Interned = in
	if s != nil {
		// The session carries the memo state (questions, coverage, seen
		// facts), so an Append's pass over its new rows is the suffix of one
		// batch pass.
		ann.Session = s.ann
	}
	var res *annotation.Result
	if appending {
		res = ann.AnnotateRange(t, nil, lo, t.NumRows())
		rep.Annotations = append(rep.Annotations, res.Tuples...)
		rep.NewFacts = append(rep.NewFacts, res.NewFacts...)
	} else {
		res = ann.Annotate(t)
		rep.Annotations, rep.NewFacts = res.Tuples, res.NewFacts
	}
	tel.EndStage(telemetry.StageAnnotate, start)
	rep.Pattern = p
	rep.Degraded.Tuples += res.DegradedTuples

	// rows are the pass's erroneous rows, errs the report's.
	rows := res.Errors()
	errs := rows
	if appending {
		errs = append(s.errs, rows...)
	}
	if ctx.Err() != nil {
		// Deadline spent before repair: degrade rather than blow through it.
		rep.Degraded.RepairsSkipped = true
		tel.Inc(telemetry.DegradedDecisions)
	} else {
		start = tel.StartStage(telemetry.StageRepair)
		if c.kb.NumTriples() != triples {
			// Annotation enriched the KB, which stales every earlier ranking:
			// a batch run ranks against the final KB, so re-rank them all.
			rep.Repairs, rows = nil, errs
		}
		keep := s // see session.repairIx
		if !appending {
			keep = nil
		}
		rep.Repairs = c.repairs(t, p, rows, rep.Repairs, keep, tel, in, rec)
		tel.EndStage(telemetry.StageRepair, start)
	}

	dc := c.crowd.Stats()
	rep.Crowd = addCrowdStats(rep.Crowd, dc)
	rep.QuestionsAsked = rep.Crowd.Questions
	hits1, misses1 := c.resolver.Stats()
	tel.Add(telemetry.ResolverHits, hits1-hits0)
	tel.Add(telemetry.ResolverMisses, misses1-misses0)
	root.SetInt("questions", int64(dc.Questions))
	rep.Timings = tel.Snapshot()
	rep.Provenance = rec
	if s != nil {
		s.in, s.rows, s.report, s.errs = in, t.NumRows(), rep, errs
		s.patternKey = p.Key()
		// Degraded decisions depend on budget/deadline state a replay cannot
		// reproduce; all further increments fall back to full re-cleans.
		s.dirty = rep.Degraded.Any()
	}
	return rep, "", nil
}

// choosePattern picks the run's pattern among the discovered candidates by
// §5 validation against kb, then attaches the §9 path edges (DiscoverPaths).
// degraded reports that the deadline or budget cut validation short. With
// replay (an Append) MUVF answers from the session's memo; drift is why the
// replay does not reproduce the session's pattern: the memo lacks a decision
// the candidates need, or the winner is another pattern.
func (c *Cleaner) choosePattern(ctx context.Context, t *Table, kb *KB, cands *discovery.Candidates, candidates []*Pattern, replay bool) (p *Pattern, degraded bool, drift string) {
	p, _, degraded, missed := c.validatePattern(ctx, t, kb, candidates, replay)
	if replay && (missed || degraded || p == nil) {
		return nil, false, "validation-memo-miss"
	}
	if c.opts.DiscoverPaths {
		p = p.Clone()
		discovery.AttachPathEdges(p, discovery.DiscoverPathEdges(cands))
	}
	if replay && p.Key() != c.session.patternKey {
		return nil, false, "pattern-shift"
	}
	return p, degraded, ""
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

// generate runs candidate generation (§4.1) over t against kb, with
// statistics taken from kb as it reads now, and resolver (nil resolves on
// kb), fanned out at the run's parallelism.
func (c *Cleaner) generate(t *Table, kb *KB, resolver resolve.Source, tel *telemetry.Pipeline) *discovery.Candidates {
	return discovery.GenerateParallel(t, kbstats.New(kb), discovery.Options{
		MaxCandidates: c.opts.MaxCandidates,
		MaxRows:       c.opts.MaxRows,
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

// repairs is the §6.2 stage: rank rows into out (a new map when nil) and
// return it; nil when the pattern has no relationships. The index is built
// from the current KB, unless the session s (nil when no index is kept)
// holds one built at the KB's current triple count — every KB mutation adds
// a triple. A built index is kept on s.
func (c *Cleaner) repairs(t *Table, p *Pattern, rows []int, out map[int][]Repair, s *session, tel *telemetry.Pipeline, in *table.Interned, rec *provenance.Recorder) map[int][]Repair {
	if len(p.Edges) == 0 {
		return nil // no relationships: repairs are undefined (§7.4)
	}
	if out == nil {
		out = make(map[int][]Repair, len(rows))
	}
	if len(rows) == 0 {
		// An error-free table needs no repairs: skip instance-graph
		// enumeration entirely — on large KBs building the index dwarfs
		// the rest of the pipeline.
		return out
	}
	var ix *repair.Index
	if s != nil && s.repairIx != nil && s.repairStamp == c.kb.NumTriples() {
		ix = s.repairIx
	} else {
		ix = c.buildRepairIndex(p, tel)
		if s != nil {
			s.repairIx, s.repairStamp = ix, c.kb.NumTriples()
		}
	}
	c.rankRepairs(ix, t, rows, in, tel, rec, out)
	return out
}

// buildRepairIndex enumerates the instance graphs of p (deterministic at
// every parallelism) and builds the inverted lists, timed as the
// build-index stage.
func (c *Cleaner) buildRepairIndex(p *Pattern, tel *telemetry.Pipeline) *repair.Index {
	start := tel.StartStage(telemetry.StageBuildIndex)
	defer tel.EndStage(telemetry.StageBuildIndex, start)
	return repair.BuildIndex(c.kb, p, repair.Options{
		Workers:   c.opts.Workers,
		Telemetry: tel,
	})
}

// rankRepairs fills out with the top-k repairs of every in-range row of
// rows against ix. With an interned view of t, duplicate rows collapse onto
// one ranking per distinct signature: TopK is a pure function of the
// tuple's values and the read-only index, so the ranked list is computed
// once and shared by every duplicate. Ranking fans out over contiguous
// ranges of the distinct rows, each recording into its own child pipeline
// (through a shallow index view) and child provenance recorder; the
// provenance record is the ranked candidate list per decision unit (the
// signature group under dedup, the row otherwise).
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
