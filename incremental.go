// Incremental and streaming cleaning: Append re-cleans only the rows added
// since the last run, ApplyKBDelta folds new KB facts in without flushing the
// session. Both are anchored to one invariant, pinned by the propcheck
// differentials: the cumulative report after any sequence of increments is
// semantically identical to one batch Clean of the merged inputs
// (incremental(T + ΔT) ≡ batch(T ∪ ΔT), and ApplyKBDelta ≡ rebuild from the
// merged KB).
//
// The machinery behind the invariant:
//
//   - the session snapshots the KB at Clean time (CloneExact, ID-preserving
//     and copy-on-write), so drift checks and full re-cleans run against
//     exactly the store a batch run over the merged inputs would start
//     from — never against the enrichment the session itself added — and,
//     until the snapshot is written, take their KB statistics from the
//     tables its rdf snapshot shares (kbstats.New);
//   - the validated pattern is re-derived per increment by running discovery
//     over the merged table and REPLAYING §5 MUVF from the memoised crowd
//     decisions (validation.AnswerMemo): zero crowd questions, and any
//     decision context the memo cannot answer — or a replayed winner that
//     differs from the session's pattern — is drift, triggering a recorded
//     full re-clean;
//   - annotation of the delta runs through annotation.Session, which carries
//     the base run's question memo, coverage memo and seen-facts set, making
//     the delta pass observationally the suffix of one long batch pass;
//   - repairs reuse the cached §6.2 index while the KB is unchanged and rank
//     only the delta's erroneous rows; any KB mutation (delta enrichment or
//     ApplyKBDelta) re-ranks every erroneous row against a rebuilt index,
//     which is exactly what a batch run over the merged inputs computes.
//
// Equivalence assumes the crowd's answers are a function of the question.
// The simulated crowds do not guarantee it (see validation.AnswerMemo): they
// draw every answer from one shared stream, so a long session can decide a
// hard variable differently from a batch run. A noisy live crowd diverges
// across batch re-runs too, so replay is no worse than the batch baseline
// there.
package katara

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"katara/internal/annotation"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/validation"
)

// ErrNotIncremental is returned by Append and ApplyKBDelta when no
// incremental session is active: Options.Incremental must be set and a Clean
// must have run first.
var ErrNotIncremental = errors.New("katara: Append requires Options.Incremental and a prior Clean")

// KBAddition is one triple to fold into the knowledge base mid-session via
// ApplyKBDelta. Object is a resource IRI unless Literal is set.
type KBAddition struct {
	Subject   string
	Predicate string
	Object    string
	Literal   bool
}

// session is the state of one incremental cleaning session, created by Clean
// when Options.Incremental is set and advanced by Append / ApplyKBDelta.
type session struct {
	// tbl is the session's private copy of the table; Append grows it in
	// place. A copy, not the caller's table: callers (and the job layer's
	// chain re-execution) must be able to reuse their submission unchanged.
	tbl  *Table
	rows int // rows covered by the cumulative report
	// in is the distinct-signature view, extended in place per append
	// (nil when Options.Dedup is off).
	in *table.Interned
	// base is the ID-preserving KB snapshot taken when Clean started, plus
	// every ApplyKBDelta since — the store a batch run over the merged
	// inputs would start from. Session enrichment never touches it.
	base *rdf.Store
	// baseStats/baseResolver serve drift-check discovery over base; built
	// lazily on the first increment and discarded when base changes.
	baseStats    *kbstats.Stats
	baseResolver *resolve.Cache
	// memo holds the crowd's §5 plurality decisions from the validated run;
	// replaying MUVF from it is the drift detector.
	memo *validation.AnswerMemo
	// ann carries the annotation memo state (question memo, coverage memo,
	// seen facts) across passes.
	ann        *annotation.Session
	pattern    *Pattern
	patternKey string
	// report is the cumulative report, extended in place.
	report *Report
	errs   []int // cumulative erroneous rows, ascending
	// repairIx is the cached §6.2 index; valid while the KB still has
	// repairStamp triples (every KB mutation adds a triple).
	repairIx    *repair.Index
	repairStamp int
	kbStamp     int // kb.NumTriples at the last completed increment
	// dirty forces a full re-clean on the next increment: the session
	// degraded (budget/deadline decisions are not replayable) or a prior
	// increment failed.
	dirty bool
}

// beginIncremental opens a fresh session at the start of a Clean run, before
// the pipeline can enrich the KB.
func (c *Cleaner) beginIncremental(t *Table) {
	c.session = &session{
		tbl:  t.Clone(),
		base: c.kb.CloneExact(),
		memo: validation.NewAnswerMemo(),
		ann:  &annotation.Session{},
	}
}

// captureSession records the completed run's outcome on the session.
func (c *Cleaner) captureSession(t *Table, rep *Report, in *table.Interned) {
	s := c.session
	s.in = in
	s.rows = t.NumRows()
	s.pattern = rep.Pattern
	if rep.Pattern != nil {
		s.patternKey = rep.Pattern.Key()
	}
	s.report = rep
	s.errs = s.errs[:0]
	for _, ta := range rep.Annotations {
		if ta.Label == Erroneous {
			s.errs = append(s.errs, ta.Row)
		}
	}
	s.repairIx = nil
	s.kbStamp = c.kb.NumTriples()
	// Degraded decisions depend on budget/deadline state a replay cannot
	// reproduce; all further increments fall back to full re-cleans.
	s.dirty = rep.Degraded.Any()
}

// Append grows the session's table by rows and re-cleans incrementally: the
// already-validated pattern is reused when the memoised crowd decisions still
// pin it (checked by replaying MUVF over freshly discovered candidates —
// zero crowd cost), annotation runs only over the delta with the base run's
// memo state, and repairs rank only the delta's erroneous rows unless the
// delta enriched the KB. It returns the cumulative report, which is
// semantically identical to one batch Clean of the merged table. On drift —
// the appended rows shifted discovery or a validation decision — a
// provenance drift event is recorded and the whole merged table is re-cleaned
// from the session's KB snapshot.
func (c *Cleaner) Append(rows [][]string) (*Report, error) {
	return c.AppendContext(context.Background(), rows)
}

// AppendContext is Append bounded by ctx and the Options' budget/deadline.
func (c *Cleaner) AppendContext(ctx context.Context, rows [][]string) (*Report, error) {
	s := c.session
	if !c.opts.Incremental || s == nil {
		return nil, ErrNotIncremental
	}
	if len(rows) == 0 && s.report != nil {
		return s.report, nil
	}
	cols := s.tbl.NumCols()
	for _, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("katara: appended row has %d cells, table has %d columns", len(r), cols)
		}
	}
	for _, r := range rows {
		s.tbl.Append(r...)
	}
	lo := s.rows
	if s.report == nil || s.dirty {
		// No validated pattern to extend (the previous clean failed), or the
		// session took degraded decisions replay cannot reproduce.
		return c.recleanFromBase(ctx, "unreplayable-session", len(rows))
	}
	if s.in != nil {
		s.in.Extend(s.tbl)
	}
	p, reason := c.replayPattern(ctx)
	if p == nil {
		return c.recleanFromBase(ctx, reason, len(rows))
	}
	return c.appendDelta(ctx, p, lo)
}

// replayPattern re-derives the validated pattern for the current merged
// table: discovery runs in full against the session's KB snapshot (exactly
// the candidates a batch run would rank), then MUVF replays from the memoised
// crowd decisions. A nil return is drift: the memo lacked a decision the new
// candidate set needs, or the replayed winner is not the session's pattern.
func (c *Cleaner) replayPattern(ctx context.Context) (*Pattern, string) {
	s := c.session
	if s.baseStats == nil {
		s.baseStats = kbstats.New(s.base)
		s.baseResolver = resolve.New(s.base, c.opts.Threshold)
	}
	cands := c.generate(s.tbl, s.baseStats, s.baseResolver, nil)
	candidates := discovery.TopK(cands, c.opts.TopK)
	if len(candidates) == 0 {
		return nil, "no-pattern"
	}
	var p *Pattern
	if c.opts.ValidationOracle == nil {
		p = candidates[0]
	} else {
		v := &validation.Validator{
			KB:                   s.base,
			Table:                s.tbl,
			Crowd:                c.crowd,
			Oracle:               c.opts.ValidationOracle,
			QuestionsPerVariable: c.opts.QuestionsPerVariable,
			TuplesPerQuestion:    c.opts.TuplesPerQuestion,
			Rng:                  rand.New(rand.NewSource(c.opts.Seed)),
			Ctx:                  ctx,
			Memo:                 s.memo,
			Replay:               true,
		}
		res := v.MUVF(candidates)
		if v.Missed || res.Degraded || res.Pattern == nil {
			return nil, "validation-memo-miss"
		}
		p = res.Pattern
	}
	if c.opts.DiscoverPaths {
		p = p.Clone()
		discovery.AttachPathEdges(p, discovery.DiscoverPathEdges(cands))
	}
	if p.Key() != s.patternKey {
		return nil, "pattern-shift"
	}
	return p, ""
}

// appendDelta runs annotation and repair over only the delta rows [lo, n)
// and folds the outcome into the cumulative report.
func (c *Cleaner) appendDelta(ctx context.Context, p *Pattern, lo int) (*Report, error) {
	s := c.session
	t := s.tbl
	rec := c.opts.Provenance
	ctx, tel, done := c.startRun(ctx)
	defer done()
	root := tel.PushSpan("append")
	root.SetStr("table", t.Name)
	root.SetInt("rows", int64(t.NumRows()-lo))
	if rec.Enabled() {
		units := make([]int, t.NumRows())
		for i := range units {
			if s.in != nil {
				units[i] = s.in.GroupOf(i)
			} else {
				units[i] = i
			}
		}
		rec.SetRowUnits(units, s.in != nil)
	}

	c.crowd.ResetStats()
	kbBefore := c.kb.NumTriples()
	start := tel.StartStage(telemetry.StageAnnotate)
	ann := c.annotator(ctx, p, tel)
	ann.Interned = s.in
	ann.Session = s.ann
	res := ann.AnnotateRange(t, nil, lo, t.NumRows())
	tel.EndStage(telemetry.StageAnnotate, start)

	rep := s.report
	// The replayed pattern carries the merged table's discovery score — what
	// a batch run over the merged table reports.
	rep.Pattern = p
	s.pattern, s.patternKey = p, p.Key()
	rep.Annotations = append(rep.Annotations, res.Tuples...)
	rep.NewFacts = append(rep.NewFacts, res.NewFacts...)
	rep.Degraded.Tuples += res.DegradedTuples
	newErrs := res.Errors()
	s.errs = append(s.errs, newErrs...)

	// Delta enrichment stales every earlier repair ranking: a batch run
	// builds its index from the final KB, so re-rank everything. Otherwise
	// the cached index still matches the KB and only the delta ranks.
	enriched := c.kb.NumTriples() != kbBefore
	if ctx.Err() != nil {
		rep.Degraded.RepairsSkipped = true
		tel.Inc(telemetry.DegradedDecisions)
	} else if len(p.Edges) > 0 {
		start = tel.StartStage(telemetry.StageRepair)
		c.sessionRepairs(rep, p, newErrs, enriched, tel, rec)
		tel.EndStage(telemetry.StageRepair, start)
	} else {
		rep.Repairs = nil
	}

	dc := c.crowd.Stats()
	rep.Crowd = addCrowdStats(rep.Crowd, dc)
	rep.QuestionsAsked = rep.Crowd.Questions
	if res.DegradedTuples > 0 || rep.Degraded.RepairsSkipped {
		s.dirty = true
	}
	root.SetInt("questions", int64(dc.Questions))
	root.End()
	if tel != nil {
		rep.Timings = tel.Snapshot()
	}
	s.rows = t.NumRows()
	s.kbStamp = c.kb.NumTriples()
	return rep, nil
}

// sessionRepairs ranks erroneous rows against the cached repair index,
// rebuilding it when the KB moved past its stamp. With rerankAll the whole
// cumulative error set is re-ranked and the report's repair map replaced;
// otherwise only rows (the delta's errors) are added. Duplicate rows collapse
// onto one ranking per distinct signature, like the batch path.
func (c *Cleaner) sessionRepairs(rep *Report, p *Pattern, rows []int, rerankAll bool, tel *telemetry.Pipeline, rec *provenance.Recorder) {
	s := c.session
	if rerankAll {
		rows = s.errs
		rep.Repairs = nil
	}
	if rep.Repairs == nil {
		rep.Repairs = make(map[int][]Repair, len(rows))
	}
	if len(rows) == 0 {
		return
	}
	if s.repairIx == nil || s.repairStamp != c.kb.NumTriples() {
		s.repairIx = c.buildRepairIndex(p, tel)
		s.repairStamp = c.kb.NumTriples()
	}
	c.rankRepairs(s.repairIx, s.tbl, rows, s.in, tel, rec, rep.Repairs)
}

// recleanFromBase is the drift path: record the drift, rewind the KB to the
// session snapshot (plus any applied KB deltas) and run the full batch
// pipeline over the merged table — the increments' semantics, recomputed
// from scratch.
func (c *Cleaner) recleanFromBase(ctx context.Context, reason string, deltaRows int) (*Report, error) {
	s := c.session
	if rec := c.opts.Provenance; rec.Enabled() {
		// Reset at the start of runClean deliberately preserves drift events.
		rec.RecordDrift(reason, deltaRows)
	}
	c.kb = s.base.CloneExact()
	c.stats = kbstats.New(c.kb)
	c.resolver = resolve.New(c.kb, c.opts.Threshold)
	rep, err := c.runClean(ctx, s.tbl)
	if err != nil && c.session != nil {
		// Leave the session usable: the table keeps its rows, and the next
		// increment re-attempts the full clean.
		c.session.dirty = true
	}
	return rep, err
}

// ApplyKBDelta folds new facts into the KB mid-session and reconciles the
// cumulative report, as if the session had started from the enlarged KB.
// Label additions on known resources take a targeted path: the pattern is
// re-checked by replay, the affected decision units — those whose cell
// values the new labels can now match, found by reverse similarity lookup —
// are examined, and if none of them involved the crowd only the repair
// rankings are recomputed. Any other addition, or an affected crowd-decided
// unit, triggers a recorded full re-clean from the merged KB. Returns the
// reconciled cumulative report.
func (c *Cleaner) ApplyKBDelta(adds []KBAddition) (*Report, error) {
	return c.ApplyKBDeltaContext(context.Background(), adds)
}

// ApplyKBDeltaContext is ApplyKBDelta bounded by ctx.
func (c *Cleaner) ApplyKBDeltaContext(ctx context.Context, adds []KBAddition) (*Report, error) {
	s := c.session
	if !c.opts.Incremental || s == nil {
		return nil, ErrNotIncremental
	}
	if len(adds) == 0 && s.report != nil {
		return s.report, nil
	}
	// Targeted reconciliation is sound only for label literals on resources
	// both stores already hold: a new resource would intern at different
	// positions in the session KB and a batch-merged KB, breaking the ID
	// order-isomorphism repair tie-breaking relies on.
	targeted := s.report != nil && !s.dirty
	labelNorms := make([]string, 0, len(adds))
	for _, a := range adds {
		isLabel := a.Literal && a.Predicate == rdf.IRILabel
		if !isLabel ||
			s.base.LookupTerm(rdf.IRI(a.Subject)) == rdf.NoID ||
			c.kb.LookupTerm(rdf.IRI(a.Subject)) == rdf.NoID {
			targeted = false
		}
		if isLabel {
			labelNorms = append(labelNorms, similarity.Normalize(a.Object))
		}
	}
	// Apply to the snapshot and the live KB in the same order; the live
	// KB's label-generation bump lets the resolver invalidate per label
	// instead of flushing.
	for _, a := range adds {
		obj := rdf.IRI(a.Object)
		if a.Literal {
			obj = rdf.Lit(a.Object)
		}
		s.base.AddFact(rdf.IRI(a.Subject), rdf.IRI(a.Predicate), obj)
		c.kb.AddFact(rdf.IRI(a.Subject), rdf.IRI(a.Predicate), obj)
	}
	s.baseStats, s.baseResolver = nil, nil
	if !targeted {
		return c.recleanFromBase(ctx, "kb-delta", 0)
	}
	p, reason := c.replayPattern(ctx)
	if p == nil {
		return c.recleanFromBase(ctx, reason, 0)
	}
	if c.kbDeltaTouchesCrowdUnits(labelNorms) {
		return c.recleanFromBase(ctx, "kb-delta-affected-unit", 0)
	}
	// Every affected unit was fully KB-validated, and fuller coverage cannot
	// shrink (KB growth is monotone): annotations, facts and enrichment are
	// untouched. Repairs are a pure function of the enlarged KB — re-rank
	// every erroneous row against a rebuilt index, exactly the batch result.
	rep := s.report
	rep.Pattern = p
	s.pattern, s.patternKey = p, p.Key()
	if len(p.Edges) > 0 {
		s.repairIx = nil
		c.sessionRepairs(rep, p, nil, true, c.opts.Pipeline, c.opts.Provenance)
	}
	s.kbStamp = c.kb.NumTriples()
	return rep, nil
}

// kbDeltaTouchesCrowdUnits reports whether any decision unit that involved
// the crowd (anything but ValidatedByKB) contains a cell value one of the new
// labels can now match. The affected values are found by reverse lookup: an
// index over the table's distinct cell values is probed with each new label
// norm under the relaxed trigram bound, a provable superset of the forward
// matches (see similarity.LookupNormalizedRelaxed), then exact-scored by the
// lookup's threshold filter. Units outside the affected set keep identical
// label-candidate sets, so their coverage, questions and enrichment are
// untouched; fully-KB-validated affected units cannot regress under a
// monotonically grown KB.
func (c *Cleaner) kbDeltaTouchesCrowdUnits(labelNorms []string) bool {
	s := c.session
	t := s.tbl
	ix := similarity.NewIndex()
	var vals []string
	seen := map[string]bool{}
	collect := func(v string) {
		if !seen[v] {
			seen[v] = true
			ix.Add(v)
			vals = append(vals, v)
		}
	}
	if s.in != nil {
		for col := 0; col < s.in.NumCols(); col++ {
			d := s.in.Dict(col)
			for code := 0; code < d.Len(); code++ {
				collect(d.Value(int32(code)))
			}
		}
	} else {
		for _, row := range t.Rows {
			for _, v := range row {
				collect(v)
			}
		}
	}
	affected := map[string]bool{}
	for _, n := range labelNorms {
		for _, cand := range ix.LookupNormalizedRelaxed(n, c.opts.Threshold) {
			affected[vals[cand.ID]] = true
		}
	}
	if len(affected) == 0 {
		return false
	}
	touches := func(row int) bool {
		for _, v := range t.Rows[row] {
			if affected[v] {
				return true
			}
		}
		return false
	}
	if s.in != nil {
		for g := 0; g < s.in.NumGroups(); g++ {
			rep := s.in.Group(g).Rep
			if touches(rep) && s.report.Annotations[rep].Label != ValidatedByKB {
				return true
			}
		}
		return false
	}
	for row := range t.Rows {
		if touches(row) && s.report.Annotations[row].Label != ValidatedByKB {
			return true
		}
	}
	return false
}

// addCrowdStats sums two crowd accountings field-by-field.
func addCrowdStats(a, b CrowdStats) CrowdStats {
	out := a
	out.Questions += b.Questions
	out.Assignments += b.Assignments
	out.Retries += b.Retries
	out.Abandonments += b.Abandonments
	out.Timeouts += b.Timeouts
	out.Escalations += b.Escalations
	if len(b.ByKind) > 0 {
		merged := make(map[crowd.Kind]int, len(a.ByKind)+len(b.ByKind))
		for k, v := range a.ByKind {
			merged[k] = v
		}
		for k, v := range b.ByKind {
			merged[k] += v
		}
		out.ByKind = merged
	}
	return out
}
