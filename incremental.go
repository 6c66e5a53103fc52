// Incremental and streaming cleaning: Append re-cleans only the rows added
// since the last run, ApplyKBDelta folds new KB facts into the session and
// re-cleans from them. Both are anchored to one invariant, pinned by the
// propcheck differentials: the cumulative report after any sequence of
// increments is semantically identical to one batch Clean of the merged
// inputs (incremental(T + ΔT) ≡ batch(T ∪ ΔT), and ApplyKBDelta ≡ rebuild
// from the merged KB).
//
// The machinery behind the invariant:
//
//   - the session snapshots the KB at Clean time (CloneExact, ID-preserving
//     and copy-on-write), so drift checks and full re-cleans run against
//     exactly the store a batch run over the merged inputs would start
//     from — never against the enrichment the session itself added — and,
//     until the snapshot is written, take their KB statistics from the
//     tables its rdf snapshot shares (kbstats.New);
//   - an Append runs the same pipeline driver as a Clean (run, shard.go):
//     discovery over the merged table against the snapshot, then §5 MUVF
//     REPLAYED from the memoised crowd decisions (validation.AnswerMemo):
//     zero crowd questions, and any decision context the memo cannot
//     answer — or a replayed winner that differs from the session's
//     pattern — is drift, triggering a recorded full re-clean;
//   - annotation of the new rows runs through annotation.Session, which
//     carries the base run's question memo, coverage memo and seen-facts
//     set, making the pass observationally the suffix of one long batch
//     pass;
//   - repairs reuse the session's §6.2 index while the KB is unchanged and
//     rank only the new erroneous rows; enrichment by the pass re-ranks
//     every erroneous row against a rebuilt index, which is exactly what a
//     batch run over the merged inputs computes;
//   - ApplyKBDelta adds its facts to the snapshot and re-cleans from it, a
//     recorded kb-delta drift.
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

	"katara/internal/annotation"
	"katara/internal/crowd"
	"katara/internal/rdf"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/table"
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
	// base is the ID-preserving KB snapshot taken when Clean started — the
	// store a batch run over the merged inputs would start from.
	// ApplyKBDelta adds to it and re-cleans from it; session enrichment
	// never touches it.
	base *rdf.Store
	// memo holds the crowd's §5 plurality decisions from the validated run;
	// replaying MUVF from it is the drift detector.
	memo *validation.AnswerMemo
	// ann carries the annotation memo state (question memo, coverage memo,
	// seen facts) across passes.
	ann        *annotation.Session
	patternKey string
	// report is the cumulative report, extended in place.
	report *Report
	errs   []int // cumulative erroneous rows, ascending
	// repairIx is the last §6.2 index an Append built; valid while the KB
	// still has repairStamp triples (every KB mutation adds a triple). A
	// Clean's index is not kept: a retained session would pin it whether
	// or not an Append follows.
	repairIx    *repair.Index
	repairStamp int
	// dirty forces a full re-clean on the next increment: the session
	// degraded (budget/deadline decisions are not replayable) or a prior
	// increment failed.
	dirty bool
}

// beginIncremental opens a fresh session at the start of a Clean run, before
// the pipeline can enrich the KB.
func (c *Cleaner) beginIncremental(t *Table) {
	c.session = &session{
		// Room for a quarter more rows, the headroom AnnotateRange leaves
		// the report's annotations, so the first Append copies no row
		// headers.
		tbl:  t.CloneGrow(t.NumRows() / 4),
		base: c.kb.CloneExact(),
		memo: validation.NewAnswerMemo(),
		ann:  &annotation.Session{},
	}
}

// Append grows the session's table by rows and re-cleans incrementally: the
// already-validated pattern is reused when the memoised crowd decisions still
// pin it (checked by replaying MUVF over freshly discovered candidates —
// zero crowd cost), annotation runs only over the new rows with the base
// run's memo state, and repairs rank only the new erroneous rows unless the
// pass enriched the KB. It returns the cumulative report, which is
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
	// One arena for the delta's cells: the session owns its rows, so a
	// caller may reuse its row buffers.
	s.tbl.Grow(len(rows))
	for _, r := range rows {
		s.tbl.Append(r...)
	}
	if s.report == nil || s.dirty {
		// No validated pattern to extend (the previous clean failed), or the
		// session took degraded decisions replay cannot reproduce.
		return c.recleanFromBase(ctx, "unreplayable-session", len(rows))
	}
	rep, drift, err := c.run(ctx, s.tbl, s.rows)
	if drift != "" {
		return c.recleanFromBase(ctx, drift, len(rows))
	}
	return rep, err
}

// recleanFromBase is the drift path: record the drift, rewind the KB to the
// session snapshot (plus any applied KB delta) and run the full batch
// pipeline over the merged table — the increments' semantics, recomputed
// from scratch.
func (c *Cleaner) recleanFromBase(ctx context.Context, reason string, deltaRows int) (*Report, error) {
	s := c.session
	if rec := c.opts.Provenance; rec.Enabled() {
		// Reset at the start of runClean deliberately preserves drift events.
		rec.RecordDrift(reason, deltaRows)
	}
	c.kb = s.base.CloneExact()
	c.resolver = resolve.New(c.kb, c.opts.Threshold)
	rep, err := c.runClean(ctx, s.tbl)
	if err != nil && c.session != nil {
		// Leave the session usable: the table keeps its rows, and the next
		// increment re-attempts the full clean.
		c.session.dirty = true
	}
	return rep, err
}

// ApplyKBDelta folds new facts into the session's KB snapshot and re-cleans
// the session's table from it, as if the session had started from the
// enlarged KB; the re-clean is recorded as a kb-delta drift. Returns the
// re-cleaned cumulative report.
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
	for _, a := range adds {
		obj := rdf.IRI(a.Object)
		if a.Literal {
			obj = rdf.Lit(a.Object)
		}
		s.base.AddFact(rdf.IRI(a.Subject), rdf.IRI(a.Predicate), obj)
	}
	return c.recleanFromBase(ctx, "kb-delta", 0)
}

// addCrowdStats sums two crowd accountings field-by-field into a new value
// (ByKind is a fresh map, never nil).
func addCrowdStats(a, b CrowdStats) CrowdStats {
	out := a
	out.Questions += b.Questions
	out.Assignments += b.Assignments
	out.Retries += b.Retries
	out.Abandonments += b.Abandonments
	out.Timeouts += b.Timeouts
	out.Escalations += b.Escalations
	out.ByKind = make(map[crowd.Kind]int, len(a.ByKind)+len(b.ByKind))
	for k, v := range a.ByKind {
		out.ByKind[k] = v
	}
	for k, v := range b.ByKind {
		out.ByKind[k] += v
	}
	return out
}
