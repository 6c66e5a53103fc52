// Package annotation implements KATARA's data annotation (§6.1): each tuple
// is checked against the validated table pattern — fully covered by the KB
// (correct), partially covered and confirmed by the crowd (correct, and a
// new fact enriches the KB), or contradicted by the crowd (erroneous).
package annotation

import (
	"context"
	"fmt"
	"strings"

	"katara/internal/crowd"
	"katara/internal/fanout"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// Label classifies a tuple per §6.1.
type Label int

const (
	// ValidatedByKB: the tuple fully matches the pattern in the KB (case i).
	ValidatedByKB Label = iota
	// ValidatedByCrowd: the KB lacked coverage but the crowd confirmed every
	// missing piece (case ii).
	ValidatedByCrowd
	// Erroneous: the crowd rejected at least one missing piece (case iii).
	Erroneous
	// Unknown: the crowd could not be consulted (budget or deadline
	// exhausted) and the DegradeMarkUnknown policy is active. Unknown tuples
	// are neither trusted nor repaired.
	Unknown
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case ValidatedByKB:
		return "validated-by-kb"
	case ValidatedByCrowd:
		return "validated-by-kb-and-crowd"
	case Erroneous:
		return "erroneous"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// Fact is a statement confirmed by the crowd that was missing from the KB —
// the KB-enrichment by-product (§6.1).
type Fact struct {
	IsType  bool
	Subject string   // cell value
	Type    rdf.ID   // when IsType
	Prop    rdf.ID   // when !IsType and Path is empty
	Path    []rdf.ID // §9 multi-hop fact: the property chain
	Object  string   // cell value, when !IsType
}

// TupleAnnotation is the per-tuple outcome. Duplicate rows of one signature
// (and the step-1 Match they were decided from) share NodeByKB, EdgeByKB,
// PathByKB and NewFacts: treat them as read-only, like Report.Repairs.
type TupleAnnotation struct {
	Row   int
	Label Label
	// NodeByKB[col] / EdgeByKB[i] / PathByKB[i] report which conditions the
	// KB covered.
	NodeByKB map[int]bool
	EdgeByKB []bool
	PathByKB []bool
	// NewFacts are the crowd-confirmed facts for this tuple.
	NewFacts []Fact
	// Degraded marks a label decided under a graceful-degradation policy
	// (the crowd was unreachable: budget or deadline exhausted).
	Degraded bool
}

// Breakdown aggregates Table 5's fractions over values and relationships.
type Breakdown struct {
	TypeKB, TypeCrowd, TypeError int
	RelKB, RelCrowd, RelError    int
}

// TypeFractions returns (kb, crowd, error) fractions over typed values.
func (b Breakdown) TypeFractions() (kb, cr, er float64) {
	n := float64(b.TypeKB + b.TypeCrowd + b.TypeError)
	if n == 0 {
		return 0, 0, 0
	}
	return float64(b.TypeKB) / n, float64(b.TypeCrowd) / n, float64(b.TypeError) / n
}

// RelFractions returns (kb, crowd, error) fractions over relationships.
func (b Breakdown) RelFractions() (kb, cr, er float64) {
	n := float64(b.RelKB + b.RelCrowd + b.RelError)
	if n == 0 {
		return 0, 0, 0
	}
	return float64(b.RelKB) / n, float64(b.RelCrowd) / n, float64(b.RelError) / n
}

// Result is the outcome of annotating a table.
type Result struct {
	Tuples    []TupleAnnotation
	Breakdown Breakdown
	NewFacts  []Fact // deduplicated KB-enrichment facts
	// DegradedTuples counts tuples whose label was decided under a
	// graceful-degradation policy.
	DegradedTuples int
}

// Errors returns the rows labelled Erroneous.
func (r *Result) Errors() []int {
	var out []int
	for _, t := range r.Tuples {
		if t.Label == Erroneous {
			out = append(out, t.Row)
		}
	}
	return out
}

// FactOracle supplies real-world ground truth for the simulated crowd.
type FactOracle interface {
	// TypeHolds reports whether value truly is an instance of typ.
	TypeHolds(value string, typ rdf.ID) bool
	// RelHolds reports whether prop truly relates subj to obj.
	RelHolds(subj string, prop rdf.ID, obj string) bool
}

// PathOracle is optionally implemented by fact oracles that can verify the
// §9 multi-hop path facts. Oracles without it refute path facts.
type PathOracle interface {
	PathHolds(subj string, props []rdf.ID, obj string) bool
}

// DegradePolicy selects what happens to a tuple when the crowd can no
// longer be consulted (question budget or run deadline exhausted).
type DegradePolicy int

const (
	// DegradeTrustKB treats unanswered checks as KB incompleteness: the
	// tuple is accepted (ValidatedByCrowd, flagged Degraded), but no new
	// facts are minted from the unverified claims.
	DegradeTrustKB DegradePolicy = iota
	// DegradeMarkUnknown labels unanswered tuples Unknown: they are neither
	// trusted, enriched from, nor repaired.
	DegradeMarkUnknown
)

// String implements fmt.Stringer.
func (d DegradePolicy) String() string {
	switch d {
	case DegradeTrustKB:
		return "trust-kb"
	case DegradeMarkUnknown:
		return "mark-unknown"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(d))
	}
}

// Annotator annotates tables against one validated pattern.
type Annotator struct {
	KB      *rdf.Store
	Pattern *pattern.Pattern
	Crowd   *crowd.Crowd
	Oracle  FactOracle
	// Ctx bounds the crowd interaction (nil = context.Background()); an
	// expired deadline triggers the Degrade policy for remaining tuples.
	Ctx context.Context
	// Degrade picks the policy for tuples whose crowd questions went
	// unanswered (budget or deadline exhausted).
	Degrade DegradePolicy
	// Threshold is the label-similarity threshold (default 0.7).
	Threshold float64
	// Enrich adds crowd-confirmed facts to the KB immediately, so later
	// occurrences of the same value validate without the crowd — the effect
	// that makes RelationalTables' KB share high in Table 5.
	Enrich bool
	// Workers fans the per-tuple KB-coverage evaluation (step 1 of §6.1)
	// out over that many contiguous ranges; <= 1 evaluates serially. Crowd
	// questions are always issued serially in row order, so question
	// budgets, majority votes and enrichment stay deterministic: results are
	// identical for every worker count. Precomputed coverage survives
	// enrichment: each Match carries the footprint it read, and only Matches
	// an enrichment could have changed are re-evaluated, serially.
	Workers int
	// Telemetry receives the TuplesAnnotated / KBLookups / CrowdQuestions
	// counters and one annotate-tuple span and histogram sample per decided
	// tuple (replayed duplicates are counted once per pass, not timed); nil
	// disables instrumentation.
	Telemetry *telemetry.Pipeline
	// Resolver, when non-nil, handles label resolution instead of direct
	// KB.MatchLabel calls — typically the resolve.Cache shared with discovery
	// and repair. It must resolve against the same KB; enrichment mutations
	// are picked up through the store's label generation, so cached coverage
	// stays consistent with direct evaluation. It also makes revalidating a
	// Match after a label was minted cheap (one memo probe per typed value);
	// without it such Matches are re-evaluated.
	Resolver pattern.LabelSource
	// Interned, when non-nil, is the distinct-signature view of the table
	// being annotated (it must have been built from the same rows). Step-1
	// KB coverage is then evaluated once per distinct signature and fanned
	// out to duplicate rows, crowd questions are memoized so one question
	// answers every duplicate, and a signature's verdict is decided once and
	// copied to later duplicates while its Match stays exact. Annotation
	// outcomes are identical with or without it; only the question count
	// (and therefore crowd cost) drops. The memo lives for one
	// Annotate/AnnotateWith call, or for the Session when one is attached.
	Interned *table.Interned

	// Prov records each tuple's evidence lineage — the KB facts that
	// matched, the crowd checks issued and their question IDs, the verdict;
	// nil disables. Evidence is recorded per decision unit (the signature
	// group under dedup, the row otherwise) and fanned out on read.
	Prov *provenance.Recorder

	// Session, when non-nil, carries annotation memo state across passes:
	// the crowd-answer memo, the seen-facts set behind NewFacts dedup and
	// the per-signature coverage memo all live in the Session instead of
	// the single pass. Incremental cleaning annotates appended rows through
	// AnnotateRange with the Session of the base run, which makes the delta
	// pass behave exactly like the suffix of one long batch pass: a delta
	// row whose signature (or question) was already decided fans the cached
	// verdict, and facts already reported are not re-listed.
	Session *Session

	// qmemo caches crowd answers within one AnnotateWith pass (dedup mode
	// only), keyed by what the prompt is made of and by the ground truth
	// (see questionKey). Degraded (unanswered) outcomes are never memoized —
	// budget and deadline exhaustion are transient, not properties of the
	// question.
	qmemo map[questionKey]memoAnswer

	// provUnit is the decision unit the current tuple's evidence is
	// recorded under; negative while recording is off (disabled recorder,
	// or a duplicate row whose unit already carries a settled record).
	provUnit int

	// cov is the coverage bookkeeping of the running pass; enrichment logs
	// its KB mutations there.
	cov *coverage
	// asks counts crowd checks (memo hits included), so a verdict knows how
	// many deduplicated questions a replay stands for.
	asks int
}

// questionKey identifies one crowd check for the dedup memo by the parts
// its prompt is built from, so a memo hit formats nothing. The prompt
// quotes both values, which makes it a one-to-one function of kind, label,
// subject and object: the key groups checks exactly as the prompt would.
// An edge check and its recheck share kind and prompt. The label is the
// display label, not the KB term: two distinct terms can share a label,
// yielding identical prompts, so they share entries — split by holds, the
// ground truth, which may differ between them.
type questionKey struct {
	kind      byte // 'n' node type, 'e' edge, 'p' §9 path
	label     string
	subj, obj string
	holds     bool
}

// prompt is the question put to the crowd for the check.
func (k questionKey) prompt() string {
	switch k.kind {
	case 'n':
		return fmt.Sprintf("Is %q a %s?", k.subj, k.label)
	case 'e':
		return fmt.Sprintf("Does %q %s %q?", k.subj, k.label, k.obj)
	default:
		return fmt.Sprintf("Is %q related to %q through %s?", k.subj, k.obj, k.label)
	}
}

// memoAnswer is one memoized crowd answer plus the provenance ID of the
// question that produced it, so duplicate rows' evidence chains reference
// the original question.
type memoAnswer struct {
	yes bool
	qid int64
}

// Session is the annotation memo state shared by the passes of one
// incremental cleaning session (see Annotator.Session). The zero value is
// ready to use.
type Session struct {
	qmemo     map[questionKey]memoAnswer
	seenFacts map[string]bool
	cov       *coverage
}

// coverage is the step-1 bookkeeping of one pass (or one session): the
// per-signature memo, plus the log of the annotator's own KB mutations that
// decides whether a memoised or precomputed Match is still exact (see
// pattern.Match.Current).
type coverage struct {
	kb *rdf.Store
	// known is the store's NumTriples when the annotator last looked: a
	// different count at the start of a pass means the KB changed outside
	// the annotator (a KB delta between session passes).
	known int
	// grown logs every triple the annotator added.
	grown pattern.Growth
	// groups is the per-signature memo, indexed by group (dedup only).
	groups []groupMemo
}

// groupMemo is one signature's memoised coverage and verdict.
type groupMemo struct {
	m *pattern.Match
	// checked / checkedLabels are the store's NumTriples and LabelGen when
	// m was last confirmed exact, so each KB state is checked once per
	// signature, not once per row.
	checked       int
	checkedLabels uint64
	// v is the verdict decided from m, shared by every later duplicate
	// while m stays exact; nil when none is reusable.
	v *verdict
}

// verdict is one signature's decided annotation, replayed for duplicate
// rows: the TupleAnnotation (Row aside), its Table 5 contribution and the
// number of crowd checks the decision made — all answered from the question
// memo when a duplicate re-decides, so they count as deduplicated questions.
type verdict struct {
	ta   TupleAnnotation
	bd   Breakdown
	asks int
}

// newCoverage returns empty bookkeeping for kb.
func newCoverage(kb *rdf.Store) *coverage {
	return &coverage{kb: kb, known: kb.NumTriples()}
}

// exact reports whether m still equals a fresh evaluation of tuple. g is
// the signature memo holding m, or nil for a precomputed Match.
func (a *Annotator) exact(m *pattern.Match, g *groupMemo, tuple []string, threshold float64) bool {
	now, labelGen := a.KB.NumTriples(), a.KB.LabelGen()
	fp := &m.Footprint
	if fp.Triples == now || g != nil && g.checked == now {
		return true
	}
	labelsMoved := fp.LabelGen != labelGen && (g == nil || g.checkedLabels != labelGen)
	if labelsMoved && a.Resolver == nil {
		return false // re-resolving through the store costs a full evaluation
	}
	if !m.Current(a.Pattern, a.KB, a.labels(), tuple, threshold, &a.cov.grown, labelsMoved) {
		return false
	}
	if g != nil {
		g.checked, g.checkedLabels = now, labelGen
	}
	return true
}

// labels returns the label-resolution source: the shared resolver when
// configured, the KB itself otherwise.
func (a *Annotator) labels() pattern.LabelSource {
	if a.Resolver != nil {
		return a.Resolver
	}
	return a.KB
}

// Annotate labels every tuple of tbl.
func (a *Annotator) Annotate(tbl *table.Table) *Result {
	return a.AnnotateWith(tbl, a.precomputeMatches(tbl))
}

// EvaluateCoverage evaluates the step-1 KB coverage (§6.1) of rows
// [lo, hi) into out, which must have length tbl.NumRows(). Coverage is a
// pure function of the (read-only) KB, the pattern and the tuple, so
// disjoint ranges may be evaluated concurrently — this is the per-range
// body of the coverage fan-out — and within a range each distinct cell
// value is resolved once (pattern.Evaluator). tel receives the KBLookups
// counter and may be a range-local pipeline merged by the caller. Call
// KB.WarmClosures() before fanning out: the lazily-memoised hierarchy
// closures must not be forced by racing workers.
func (a *Annotator) EvaluateCoverage(tbl *table.Table, lo, hi int, out []*pattern.Match, tel *telemetry.Pipeline) {
	ev := pattern.NewEvaluator(a.Pattern, a.KB, a.labels(), a.threshold())
	if hi > tbl.NumRows() {
		hi = tbl.NumRows()
	}
	for i := lo; i < hi; i++ {
		tel.Inc(telemetry.KBLookups)
		out[i] = ev.Evaluate(tbl.Rows[i])
	}
}

// EvaluateCoverageGroups is EvaluateCoverage over distinct-signature groups:
// groups [lo, hi) of the interned view's group list are evaluated once via
// their representative row and the resulting Match fanned out to every
// member row of out (which must have length tbl.NumRows()). Coverage is a
// pure function of the tuple's values, so duplicate rows share the verdict —
// and safely share the *pattern.Match itself, which every consumer treats as
// read-only. Disjoint group ranges may run concurrently, exactly like
// EvaluateCoverage's row ranges.
func (a *Annotator) EvaluateCoverageGroups(tbl *table.Table, groups []table.Group, lo, hi int, out []*pattern.Match, tel *telemetry.Pipeline) {
	ev := pattern.NewEvaluator(a.Pattern, a.KB, a.labels(), a.threshold())
	if hi > len(groups) {
		hi = len(groups)
	}
	for g := lo; g < hi; g++ {
		gr := groups[g]
		tel.Inc(telemetry.KBLookups)
		m := ev.Evaluate(tbl.Rows[gr.Rep])
		for _, row := range gr.Rows {
			out[row] = m
		}
	}
}

// AnnotateWith labels every tuple of tbl, with the step-1 KB coverage
// optionally precomputed in matches (nil = evaluate inline per row; the
// coverage of row i, when present, must be matches[i]). Step 2 — crowd
// consultation and enrichment — always runs serially in row order
// regardless of how matches was produced, which is the determinism
// argument: a parallel run fans only the KB-pure coverage evaluation out
// and feeds this same serial pass, so its report is byte-identical to the
// serial run's. Enrichment does not discard the precomputed coverage: a
// Match is used while its footprint shows no enrichment could have changed
// it (pattern.Match.Current), and re-evaluated inline otherwise — so every
// row sees exactly the coverage a fresh evaluation would give it.
func (a *Annotator) AnnotateWith(tbl *table.Table, matches []*pattern.Match) *Result {
	return a.AnnotateRange(tbl, matches, 0, tbl.NumRows())
}

// AnnotateRange is AnnotateWith restricted to rows [lo, hi) — the
// incremental entry point: an append pass annotates only the delta rows,
// with the Session carrying the base run's memo state so the pass is
// observationally the suffix of one batch run over the merged table.
func (a *Annotator) AnnotateRange(tbl *table.Table, matches []*pattern.Match, lo, hi int) *Result {
	threshold := a.threshold()
	if hi > tbl.NumRows() {
		hi = tbl.NumRows()
	}
	res := &Result{}
	if n := hi - lo; n > 0 {
		// A session's later passes append their tuples to this pass's (they
		// become the cumulative report's annotations): leave the headroom
		// append's own growth would, so a small Append does not copy them all.
		if a.Session != nil {
			n += n / 4
		}
		res.Tuples = make([]TupleAnnotation, 0, n)
	}
	seenFacts := map[string]bool{}
	if a.Session != nil {
		if a.Session.seenFacts == nil {
			a.Session.seenFacts = make(map[string]bool)
		}
		seenFacts = a.Session.seenFacts
	}
	// Coverage bookkeeping lives for the pass, or for the session when one
	// is attached. A session whose KB moved between passes without the
	// annotator (a KB delta) drops its memo: every memoised Match predates
	// that change, which the mutation log cannot see.
	cov := newCoverage(a.KB)
	if a.Session != nil {
		if s := a.Session.cov; s != nil && s.kb == a.KB {
			cov = s
			if n := a.KB.NumTriples(); n != cov.known {
				cov.known = n
				clear(cov.groups)
			}
		}
		a.Session.cov = cov
	}
	a.cov = cov
	defer func() { a.cov, cov.known = nil, a.KB.NumTriples() }()
	// Dedup mode: coverage and verdicts memoized per distinct signature, and
	// crowd answers memoized per question for the duration of the pass (or
	// the session, when one is attached). Outcomes are identical either way;
	// only the question count drops.
	in := a.Interned
	if in != nil && in.NumRows() != tbl.NumRows() {
		in = nil // view built from different rows: ignore it
	}
	if in != nil {
		if len(cov.groups) < in.NumGroups() {
			cov.groups = append(cov.groups, make([]groupMemo, in.NumGroups()-len(cov.groups))...)
		}
		if a.Session != nil {
			if a.Session.qmemo == nil {
				a.Session.qmemo = make(map[questionKey]memoAnswer)
			}
			a.qmemo = a.Session.qmemo
		} else {
			a.qmemo = make(map[questionKey]memoAnswer)
		}
		defer func() { a.qmemo = nil }()
	}
	// Replayed rows make no instrument call: they are counted here and
	// reported once, after the loop.
	var replays, replayedAsks int64
	for row := lo; row < hi; row++ {
		var g *groupMemo
		var m *pattern.Match
		unit := row
		if in != nil {
			unit = in.GroupOf(row)
			g = &cov.groups[unit]
			if g.m != nil && a.exact(g.m, g, tbl.Rows[row], threshold) {
				if v := g.v; v != nil {
					// A duplicate of a decided signature whose Match is still
					// exact: re-deciding would ask only memoised questions and
					// reach the same verdict, so replay it. Provenance has
					// nothing to record either: a group holds a verdict only
					// once its unit carries a settled, non-degraded record
					// (degraded verdicts are never cached), so BeginTuple
					// would decline the row.
					ta := v.ta
					ta.Row = row
					res.Tuples = append(res.Tuples, ta)
					res.Breakdown.add(v.bd)
					replays++
					replayedAsks += int64(v.asks)
					continue
				}
				m = g.m
			}
		}
		// One scoped span per decided tuple: the crowd-question spans issued
		// inside annotateTuple (serially, on this goroutine) attach as its
		// children.
		tStart := a.Telemetry.StartTimer()
		tSpan := a.Telemetry.PushSpan("annotate-tuple")
		if m == nil {
			m = a.match(g, matches, tbl, row, threshold)
		}
		// Provenance is recorded once per decision unit: the first row of a
		// signature group writes the unit's evidence, duplicates share it on
		// read. A degraded record is retried — degradation is a property of
		// the run's remaining budget, not of the signature.
		a.provUnit = -1
		if a.Prov.BeginTuple(unit) {
			a.provUnit = unit
		}
		asks := a.asks
		ta := a.annotateTuple(tbl, row, m)
		if a.provUnit >= 0 {
			a.Prov.RecordVerdict(a.provUnit, ta.Label.String(), ta.Degraded, m.Full)
		}
		bd := a.tally(ta)
		res.Breakdown.add(bd)
		for _, f := range ta.NewFacts {
			k := factKey(f)
			if !seenFacts[k] {
				seenFacts[k] = true
				res.NewFacts = append(res.NewFacts, f)
			}
		}
		// Degraded verdicts depend on the remaining budget, and an enriching
		// verdict was decided against a KB it then changed: neither is
		// replayed.
		enriching := a.Enrich && ta.Label == ValidatedByCrowd && len(ta.NewFacts) > 0
		if g != nil && !ta.Degraded && !enriching {
			g.v = &verdict{ta: ta, bd: bd, asks: a.asks - asks}
		}
		tSpan.SetInt("row", int64(row))
		tSpan.SetStr("label", ta.Label.String())
		tSpan.End()
		a.Telemetry.ObserveSince(telemetry.HistAnnotateTuple, tStart)
		a.Telemetry.Inc(telemetry.TuplesAnnotated)
		if ta.Degraded {
			res.DegradedTuples++
			a.Telemetry.Inc(telemetry.DegradedDecisions)
		}
		res.Tuples = append(res.Tuples, ta)
	}
	a.Telemetry.Add(telemetry.TuplesAnnotated, replays)
	a.Telemetry.Add(telemetry.CrowdQuestionsDeduped, replayedAsks)
	return res
}

// threshold resolves the label-similarity threshold.
func (a *Annotator) threshold() float64 {
	if a.Threshold == 0 {
		return similarity.DefaultThreshold
	}
	return a.Threshold
}

// match returns row's step-1 coverage when the signature memo g (nil
// without dedup) holds no Match that is still exact: the precomputed Match
// while it is exact, a fresh evaluation otherwise. It replaces the
// signature's memo, dropping its verdict.
func (a *Annotator) match(g *groupMemo, matches []*pattern.Match, tbl *table.Table, row int, threshold float64) *pattern.Match {
	tuple := tbl.Rows[row]
	var m *pattern.Match
	if matches != nil && matches[row] != nil && (g == nil || matches[row] != g.m) &&
		a.exact(matches[row], nil, tuple, threshold) {
		m = matches[row]
	} else {
		a.Telemetry.Inc(telemetry.KBLookups)
		m = pattern.EvaluateWith(a.Pattern, a.KB, a.labels(), tuple, threshold)
	}
	if g != nil {
		*g = groupMemo{m: m, checked: a.KB.NumTriples(), checkedLabels: a.KB.LabelGen()}
	}
	return m
}

// tally returns ta's Table 5 contribution. Unknown tuples contribute
// nothing: nothing about them was established by either the KB or the
// crowd.
func (a *Annotator) tally(ta TupleAnnotation) Breakdown {
	var b Breakdown
	if ta.Label == Unknown {
		return b
	}
	for _, n := range a.Pattern.Nodes {
		if n.Type == rdf.NoID {
			continue
		}
		switch {
		case ta.NodeByKB[n.Column]:
			b.TypeKB++
		case ta.Label == Erroneous:
			b.TypeError++
		default:
			b.TypeCrowd++
		}
	}
	rel := func(byKB bool) {
		switch {
		case byKB:
			b.RelKB++
		case ta.Label == Erroneous:
			b.RelError++
		default:
			b.RelCrowd++
		}
	}
	for i := range a.Pattern.Edges {
		rel(ta.EdgeByKB[i])
	}
	for i := range a.Pattern.Paths {
		rel(ta.PathByKB[i])
	}
	return b
}

// add accumulates o into b.
func (b *Breakdown) add(o Breakdown) {
	b.TypeKB += o.TypeKB
	b.TypeCrowd += o.TypeCrowd
	b.TypeError += o.TypeError
	b.RelKB += o.RelKB
	b.RelCrowd += o.RelCrowd
	b.RelError += o.RelError
}

// ctx resolves the annotator's context.
func (a *Annotator) ctx() context.Context {
	if a.Ctx != nil {
		return a.Ctx
	}
	return context.Background()
}

// ask consults the crowd for one boolean check. degraded reports that the
// crowd was unreachable (budget or deadline exhausted): under
// DegradeTrustKB the check counts as confirmed (but unverified), under
// DegradeMarkUnknown the caller must mark the tuple Unknown. prompt is q's
// prompt when the caller has already formatted it, "" otherwise.
//
// In dedup mode (qmemo active) a repeated question — a duplicate row's
// identical check — is answered from the memo without consuming crowd
// budget. Only answers the crowd actually delivered are memoized; a
// degraded outcome is a property of the run's remaining budget, not of the
// question, so it is re-attempted every time.
// qid is the provenance ID of the question that decided the check (the
// memoized original on a memo hit; 0 when provenance is disabled) and memo
// reports a memo hit.
func (a *Annotator) ask(q questionKey, prompt string) (confirmed, degraded bool, qid int64, memo bool) {
	a.asks++
	if a.qmemo != nil {
		if ans, ok := a.qmemo[q]; ok {
			a.Telemetry.Inc(telemetry.CrowdQuestionsDeduped)
			return ans.yes, false, ans.qid, true
		}
	}
	if prompt == "" {
		prompt = q.prompt()
	}
	yes, err := a.Crowd.AskBooleanContext(a.ctx(), prompt, q.holds)
	qid = a.Prov.LastQuestionID()
	if err != nil {
		return a.Degrade == DegradeTrustKB, true, qid, false
	}
	if a.qmemo != nil {
		a.qmemo[q] = memoAnswer{yes: yes, qid: qid}
	}
	return yes, false, qid, false
}

// recordCheck records one evidence check for the current decision unit.
// c1/c2 are the concerned columns (-1 = absent).
func (a *Annotator) recordCheck(kind string, c1, c2 int, desc string, qid int64, source string, confirmed bool) {
	if a.provUnit < 0 || !a.Prov.Enabled() {
		return
	}
	var cols []int
	if c1 >= 0 {
		cols = append(cols, c1)
	}
	if c2 >= 0 {
		cols = append(cols, c2)
	}
	a.Prov.RecordCheck(a.provUnit, kind, source, cols, desc, qid, confirmed)
}

// recordKBEvidence records the pattern pieces the KB itself covered for the
// current tuple — the "validated by KB" half of the evidence chain.
func (a *Annotator) recordKBEvidence(tuple []string, m *pattern.Match) {
	for _, n := range a.Pattern.Nodes {
		if n.Type == rdf.NoID || !m.NodeOK[n.Column] || n.Column >= len(tuple) {
			continue
		}
		desc := fmt.Sprintf("%q is a %s", tuple[n.Column], a.KB.LabelOf(n.Type))
		a.recordCheck("node", n.Column, -1, desc, 0, "kb", true)
	}
	for i, e := range a.Pattern.Edges {
		if !m.EdgeOK[i] || e.From >= len(tuple) || e.To >= len(tuple) {
			continue
		}
		desc := fmt.Sprintf("%q %s %q", tuple[e.From], a.KB.LabelOf(e.Prop), tuple[e.To])
		a.recordCheck("edge", e.From, e.To, desc, 0, "kb", true)
	}
	for i, pe := range a.Pattern.Paths {
		if !m.PathOK[i] || pe.From >= len(tuple) || pe.To >= len(tuple) {
			continue
		}
		desc := fmt.Sprintf("%q relates to %q through %s",
			tuple[pe.From], tuple[pe.To], pathLabel(a.KB, pe.Props))
		a.recordCheck("path", pe.From, pe.To, desc, 0, "kb", true)
	}
}

func factKey(f Fact) string {
	if f.IsType {
		return fmt.Sprintf("t|%s|%d", similarity.Normalize(f.Subject), f.Type)
	}
	if len(f.Path) > 0 {
		return fmt.Sprintf("p|%s|%v|%s", similarity.Normalize(f.Subject), f.Path, similarity.Normalize(f.Object))
	}
	return fmt.Sprintf("r|%s|%d|%s", similarity.Normalize(f.Subject), f.Prop, similarity.Normalize(f.Object))
}

// precomputeMatches evaluates every tuple's KB coverage (step 1 of §6.1)
// across contiguous ranges in parallel — the stage the paper distributes,
// since coverage queries are independent per tuple. Returns nil when the
// fan-out would not pay off; the caller then evaluates serially. The workers
// only read the KB, so the lazily-memoised hierarchy closures are forced up
// front, as at every fan-out point.
func (a *Annotator) precomputeMatches(tbl *table.Table) []*pattern.Match {
	n := tbl.NumRows()
	in := a.Interned
	if in != nil && in.NumRows() != n {
		in = nil
	}
	// Under dedup the work unit is the distinct signature, not the row:
	// a heavily duplicated table with few signatures is not worth a pool
	// (AnnotateWith's per-signature memo covers it serially).
	units := n
	if in != nil {
		units = in.NumGroups()
	}
	if !fanout.Splits(units, a.Workers) {
		return nil
	}
	a.KB.WarmClosures()
	matches := make([]*pattern.Match, n)
	fanout.Run("annotation", units, a.Workers, a.Telemetry, nil, func(p fanout.Part) {
		if in != nil {
			a.EvaluateCoverageGroups(tbl, in.Groups(), p.Lo, p.Hi, matches, p.Tel)
		} else {
			a.EvaluateCoverage(tbl, p.Lo, p.Hi, matches, p.Tel)
		}
	})
	return matches
}

// annotateTuple runs §6.1's two steps for one tuple, with the step-1 KB
// coverage m already evaluated (possibly by the worker pool). The KB
// coverage flags are m's own, shared read-only; EdgeByKB is copied before a
// recheck clears an entry.
func (a *Annotator) annotateTuple(tbl *table.Table, row int, m *pattern.Match) TupleAnnotation {
	ta := TupleAnnotation{
		Row:      row,
		NodeByKB: m.NodeOK,
		EdgeByKB: nonEmpty(m.EdgeOK),
		PathByKB: nonEmpty(m.PathOK),
	}
	tuple := tbl.Rows[row]
	if a.provUnit >= 0 {
		a.recordKBEvidence(tuple, m)
	}
	if m.Full {
		ta.Label = ValidatedByKB
		return ta
	}

	// Step 2: validation by KB + crowd for each missing node and edge. The
	// crowd can become unreachable mid-tuple (budget/deadline exhausted);
	// confirm then applies the degradation policy: trust-KB answers "yes"
	// without minting a fact, mark-unknown aborts the tuple.
	unknown := false
	confirm := func(kind string, c1, c2 int, q questionKey) (confirmed, verified bool) {
		if unknown {
			return false, false
		}
		// The prompt is formatted only for the evidence record or the crowd.
		var prompt string
		if a.provUnit >= 0 {
			prompt = q.prompt()
		}
		yes, degraded, qid, memo := a.ask(q, prompt)
		if degraded {
			ta.Degraded = true
			if a.Degrade == DegradeMarkUnknown {
				unknown = true
				confirmed, verified = false, false
			} else {
				confirmed, verified = true, false
			}
		} else {
			confirmed, verified = yes, yes
		}
		if a.provUnit >= 0 {
			source := "crowd"
			switch {
			case degraded:
				source = "degraded"
			case memo:
				source = "memo"
			}
			a.recordCheck(kind, c1, c2, prompt, qid, source, confirmed)
		}
		return confirmed, verified
	}
	allConfirmed := true
	for _, n := range a.Pattern.Nodes {
		if unknown {
			break
		}
		if n.Type == rdf.NoID || m.NodeOK[n.Column] || n.Column >= len(tuple) {
			continue
		}
		val := tuple[n.Column]
		holds := a.Oracle != nil && a.Oracle.TypeHolds(val, n.Type)
		q := questionKey{kind: 'n', label: a.KB.LabelOf(n.Type), subj: val, holds: holds}
		confirmed, verified := confirm("node", n.Column, -1, q)
		if verified {
			ta.NewFacts = append(ta.NewFacts, Fact{IsType: true, Subject: val, Type: n.Type})
		}
		if !confirmed && !unknown {
			allConfirmed = false
		}
	}
	for i, e := range a.Pattern.Edges {
		if unknown {
			break
		}
		if m.EdgeOK[i] || e.From >= len(tuple) || e.To >= len(tuple) {
			continue
		}
		sv, ov := tuple[e.From], tuple[e.To]
		holds := a.Oracle != nil && a.Oracle.RelHolds(sv, e.Prop, ov)
		q := questionKey{kind: 'e', label: a.KB.LabelOf(e.Prop), subj: sv, obj: ov, holds: holds}
		confirmed, verified := confirm("edge", e.From, e.To, q)
		if verified {
			ta.NewFacts = append(ta.NewFacts, Fact{Subject: sv, Prop: e.Prop, Object: ov})
		}
		if !confirmed && !unknown {
			allConfirmed = false
		}
	}

	for i, pe := range a.Pattern.Paths {
		if unknown {
			break
		}
		if m.PathOK[i] || pe.From >= len(tuple) || pe.To >= len(tuple) {
			continue
		}
		sv, ov := tuple[pe.From], tuple[pe.To]
		holds := false
		if po, ok := a.Oracle.(PathOracle); ok {
			holds = po.PathHolds(sv, pe.Props, ov)
		}
		q := questionKey{kind: 'p', label: pathLabel(a.KB, pe.Props), subj: sv, obj: ov, holds: holds}
		confirmed, verified := confirm("path", pe.From, pe.To, q)
		if verified {
			ta.NewFacts = append(ta.NewFacts, Fact{Subject: sv, Path: pe.Props, Object: ov})
		}
		if !confirmed && !unknown {
			allConfirmed = false
		}
	}

	// The KB failed to validate the tuple as a whole, so edges that appear
	// to hold individually cannot be trusted either: with ambiguous labels
	// an edge can "hold" through candidate resources inconsistent with the
	// rest of the tuple (e.g. a fuzzy-matched homonym club grounded in the
	// claimed city). Every such edge is verified by the crowd before the
	// tuple is accepted.
	if allConfirmed && !unknown {
		for i, e := range a.Pattern.Edges {
			if unknown {
				break
			}
			if !m.EdgeOK[i] || e.From >= len(tuple) || e.To >= len(tuple) {
				continue // missing edges were already asked above
			}
			sv, ov := tuple[e.From], tuple[e.To]
			holds := a.Oracle != nil && a.Oracle.RelHolds(sv, e.Prop, ov)
			q := questionKey{kind: 'e', label: a.KB.LabelOf(e.Prop), subj: sv, obj: ov, holds: holds}
			if confirmed, _ := confirm("recheck", e.From, e.To, q); !confirmed && !unknown {
				allConfirmed = false
				if &ta.EdgeByKB[0] == &m.EdgeOK[0] {
					ta.EdgeByKB = append([]bool(nil), m.EdgeOK...)
				}
				ta.EdgeByKB[i] = false
			}
		}
	}

	if unknown {
		ta.Label = Unknown
		ta.NewFacts = nil // nothing about the tuple was established
		return ta
	}

	if allConfirmed {
		ta.Label = ValidatedByCrowd
		if a.Enrich {
			for _, f := range ta.NewFacts {
				a.apply(f)
			}
		}
	} else {
		ta.Label = Erroneous
		ta.NewFacts = nil // facts from an erroneous tuple are not trusted
	}
	return ta
}

// nonEmpty returns s, or nil when s is empty.
func nonEmpty(s []bool) []bool {
	if len(s) == 0 {
		return nil
	}
	return s
}

func pathLabel(kb *rdf.Store, props []rdf.ID) string {
	parts := make([]string, len(props))
	for i, p := range props {
		parts[i] = kb.LabelOf(p)
	}
	return strings.Join(parts, " then ")
}

// apply adds a confirmed fact to the KB, minting resources as needed.
// Multi-hop path facts are not applied: asserting the chain would require
// inventing the intermediate resource, which is §9's open "extending the
// structure of the KBs" problem.
func (a *Annotator) apply(f Fact) {
	if len(f.Path) > 0 {
		return
	}
	kb := a.KB
	subj := a.resourceFor(f.Subject)
	if f.IsType {
		a.add(subj, kb.TypeID, f.Type)
		return
	}
	a.add(subj, f.Prop, a.resourceFor(f.Object))
}

// resourceFor finds the best existing resource labelled like value, or mints
// a new one carrying the value as its label.
func (a *Annotator) resourceFor(value string) rdf.ID {
	if hits := a.labels().MatchLabel(value, a.threshold()); len(hits) > 0 {
		return hits[0].Resource
	}
	r := a.KB.Res("enriched:" + similarity.Normalize(value))
	a.add(r, a.KB.LabelID, a.KB.Literal(value))
	return r
}

// add inserts one enrichment triple and logs it for coverage revalidation.
func (a *Annotator) add(s, p, o rdf.ID) {
	if a.KB.Add(s, p, o) && a.cov != nil {
		a.cov.grown.Added(a.KB, s, p, o)
	}
}
