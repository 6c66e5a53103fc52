// Package katara is a from-scratch Go implementation of KATARA (Chu et al.,
// SIGMOD 2015): a data cleaning system powered by knowledge bases and
// crowdsourcing. Given a (possibly dirty) table, an RDFS knowledge base and
// a crowd, it
//
//  1. discovers table patterns aligning columns to KB types and column
//     pairs to KB relationships (rank-join over tf-idf + semantic-coherence
//     scores, §4),
//  2. validates the best pattern with crowd questions scheduled
//     most-uncertain-variable-first (§5),
//  3. annotates every tuple as KB-validated, crowd-validated, or erroneous
//     (§6.1), enriching the KB with crowd-confirmed facts, and
//  4. generates top-k possible repairs for erroneous tuples through
//     inverted lists over KB instance graphs (§6.2).
//
// The heavy lifting lives in internal packages; this package is the stable
// surface: build or load a KB, wrap a crowd, and run the pipeline.
//
//	kb := katara.NewKB()
//	kb.ParseNTriples(f)
//	cleaner := katara.NewCleaner(kb, katara.TrustingCrowd(), katara.Options{})
//	report, err := cleaner.Clean(tbl)
package katara

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"time"

	"katara/internal/annotation"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/validation"
)

// Re-exported building blocks. The aliases keep one set of types across the
// public API and the internal engine.
type (
	// KB is an in-memory RDFS knowledge base (triples, class/property
	// hierarchies, label index, N-Triples I/O).
	KB = rdf.Store
	// Table is a relational table with CSV I/O and error injection.
	Table = table.Table
	// Pattern is a table pattern: typed columns plus directed relationships.
	Pattern = pattern.Pattern
	// Crowd is a pool of (simulated) workers answering validation questions.
	Crowd = crowd.Crowd
	// Question is one crowdsourcing task.
	Question = crowd.Question
	// Repair is one candidate repair with its cost and cell changes.
	Repair = repair.Repair
	// TupleAnnotation is the per-tuple annotation outcome.
	TupleAnnotation = annotation.TupleAnnotation
	// Fact is a crowd-confirmed statement used to enrich the KB.
	Fact = annotation.Fact
	// ValidationOracle supplies ground truth for simulated pattern
	// validation (nil = trust the top-ranked pattern).
	ValidationOracle = validation.Oracle
	// FactOracle supplies ground truth for simulated fact verification.
	FactOracle = annotation.FactOracle
	// TelemetryPipeline is the full instrumentation pipeline: counters,
	// stage timers, latency histograms, spans. Construct with NewTelemetry
	// and pass via Options.Pipeline when the caller needs to observe the run
	// live (attach a span journal, serve /metrics) rather than only read the
	// final Report.Timings snapshot.
	TelemetryPipeline = telemetry.Pipeline
	// Timings is the per-run instrumentation snapshot (Report.Timings):
	// stage wall-clocks plus the crowd-question / KB-lookup /
	// graphs-enumerated counters.
	Timings = telemetry.Snapshot
	// Transport routes crowd assignments; plug a fault injector in for
	// chaos testing (Options.Transport, NewFaultInjector).
	Transport = crowd.Transport
	// FaultConfig parameterises the deterministic fault injector.
	FaultConfig = crowd.FaultConfig
	// RetryPolicy bounds per-assignment retries with capped exponential
	// backoff (Options.Retry).
	RetryPolicy = crowd.RetryPolicy
	// EscalationPolicy is adaptive redundancy: extra assignments while the
	// vote margin is low (Options.Escalate).
	EscalationPolicy = crowd.EscalationPolicy
	// DegradePolicy picks what happens to tuples whose crowd questions went
	// unanswered after the budget or deadline ran out (Options.Degrade).
	DegradePolicy = annotation.DegradePolicy
	// CrowdStats is the crowd's cost and resilience accounting
	// (Report.Crowd).
	CrowdStats = crowd.Stats
	// ProvenanceRecorder collects per-cell evidence lineage — pattern
	// scores, MUVF steps, crowd questions with per-worker votes, annotation
	// checks and repair candidates (Options.Provenance). nil is the
	// disabled instrument: the run does no provenance work and the report
	// is byte-identical either way.
	ProvenanceRecorder = provenance.Recorder
	// Explanation is the evidence chain behind one (row, col) cell,
	// produced by ProvenanceRecorder.Explain.
	Explanation = provenance.Explanation
	// ProvenanceAudit is the run-level lineage aggregation
	// (ProvenanceRecorder.BuildAudit).
	ProvenanceAudit = provenance.Audit
)

// Degradation policies for unanswered tuples (Options.Degrade).
const (
	// DegradeTrustKB accepts unanswered tuples as KB incompleteness (the
	// paper's trusting default) without minting unverified facts.
	DegradeTrustKB = annotation.DegradeTrustKB
	// DegradeMarkUnknown labels unanswered tuples Unknown: neither trusted
	// nor repaired.
	DegradeMarkUnknown = annotation.DegradeMarkUnknown
)

// NewFaultInjector returns a deterministic, seeded chaos transport
// simulating an unreliable crowd: abandonment, transient errors, spam
// answers and latency per cfg.
func NewFaultInjector(cfg FaultConfig) *crowd.FaultInjector {
	return crowd.NewFaultInjector(cfg)
}

// NewBudget caps a run's crowd consumption: questions and/or assignments
// (0 = unlimited). Install it with Crowd.SetBudget; Options.Budget sets
// one per run instead.
func NewBudget(questions, assignments int) *crowd.Budget {
	return crowd.NewBudget(questions, assignments)
}

// Tuple annotation labels (§6.1). Unknown is the degraded outcome: the
// crowd became unreachable and the DegradeMarkUnknown policy applied.
const (
	ValidatedByKB    = annotation.ValidatedByKB
	ValidatedByCrowd = annotation.ValidatedByCrowd
	Erroneous        = annotation.Erroneous
	Unknown          = annotation.Unknown
)

// NewTelemetry returns an empty instrumentation pipeline for
// Options.Pipeline.
func NewTelemetry() *TelemetryPipeline { return telemetry.New() }

// NewProvenance returns an empty evidence-lineage recorder for
// Options.Provenance.
func NewProvenance() *ProvenanceRecorder { return provenance.NewRecorder() }

// NewKB returns an empty knowledge base.
func NewKB() *KB { return rdf.New() }

// NewTable returns an empty table with the given columns.
func NewTable(name string, columns ...string) *Table { return table.New(name, columns...) }

// NewCrowd returns a simulated crowd of n workers with the given mean
// accuracy, deterministic under seed.
func NewCrowd(n int, accuracy float64, seed int64) *Crowd {
	return crowd.New(n, accuracy, seed)
}

// TrustingCrowd returns a perfectly accurate crowd. Combined with nil
// oracles it yields the "trust the KB and assume incompleteness" policy:
// data missing from the KB is treated as correct and enriches the KB.
func TrustingCrowd() *Crowd { return crowd.Perfect(3) }

// Options configures a Cleaner.
type Options struct {
	// RepairK is the number of possible repairs per erroneous tuple
	// (default 3, the paper's operating point).
	RepairK int
	// Dedup enables distinct-signature execution (default true): the run
	// interns the table into per-column dictionaries, computes KB coverage
	// once per distinct row signature (fanning the verdict out to duplicate
	// rows), memoizes crowd questions so one question answers every
	// duplicate, and ranks repair candidates once per distinct erroneous
	// signature. Reports are byte-identical with dedup on or off except for
	// crowd accounting: dedup asks strictly fewer questions on tables with
	// duplicate rows (the propcheck dedup differential pins this down).
	Dedup *bool
	// MaxCandidates / MaxRows tune candidate generation; see the discovery
	// package. Zero values take the engine defaults.
	MaxCandidates int
	MaxRows       int
	// DiscoverPaths enables the §9 extension: column pairs with no direct
	// KB relationship are probed for two-hop property chains through
	// intermediate resources, attached to the validated pattern.
	DiscoverPaths bool
	// Seed drives tuple sampling for crowd questions (default 1).
	Seed int64
	// Workers is the run's parallelism: candidate generation, per-tuple KB
	// coverage, instance-graph enumeration and per-row top-k retrieval each
	// split their units into this many contiguous ranges, run on their own
	// goroutines with per-range telemetry and provenance merged in range
	// order. 0 or 1 runs serially; negative uses GOMAXPROCS. Reports and
	// provenance journals are byte-identical for every value — crowd
	// interaction always stays serial in row order.
	Workers int
	// Shards is an alias of Workers kept for existing callers: the run uses
	// the larger of the two (after resolving negatives to GOMAXPROCS).
	Shards int
	// Telemetry enables per-run instrumentation: Report.Timings carries
	// stage wall-clocks and pipeline counters (default off; disabled
	// instrumentation adds no overhead).
	Telemetry bool
	// Pipeline, when non-nil, is the caller-owned instrumentation pipeline
	// the run records into, taking precedence over Telemetry.
	// Supplying it lets the caller attach a span journal or serve live
	// /metrics while the run is in flight; Report.Timings still carries the
	// end-of-run snapshot.
	Pipeline *TelemetryPipeline
	// Provenance, when non-nil, records every cell-level decision's
	// evidence lineage: pattern scores, MUVF validation steps, per-question
	// worker votes, per-tuple annotation checks and per-row repair
	// candidate lists. The recorder is reset at the start of each run and
	// carried on Report.Provenance; query it with Explain, serialise it
	// with WriteJournal, aggregate it with BuildAudit. nil (the default)
	// disables recording at zero cost, and the report is byte-identical
	// with recording on or off.
	Provenance *ProvenanceRecorder

	// Transport routes every crowd assignment; nil is the direct,
	// always-reliable in-process transport. Plug in NewFaultInjector to
	// exercise the resilience layer.
	Transport Transport
	// Retry bounds per-assignment delivery retries (zero value = engine
	// defaults: 3 attempts, 1ms base backoff capped at 16ms).
	Retry RetryPolicy
	// Escalate enables adaptive redundancy: extra assignments are posted
	// while the vote margin stays below Escalate.MinMargin (zero value =
	// the paper's fixed 3-way redundancy).
	Escalate EscalationPolicy
	// Budget caps the crowd questions one Clean run may consume
	// (0 = unlimited); BudgetAssignments caps paid assignments likewise.
	// When the budget runs out mid-run the Degrade policy takes over and
	// the Report flags the degraded decisions.
	Budget            int
	BudgetAssignments int
	// Deadline bounds one Clean run's wall-clock (0 = none). CleanContext's
	// context composes with it: whichever expires first wins. It is
	// enforced wherever the run can block — every crowd interaction
	// (assignment latency, backoff waits) and the stage boundaries —
	// not inside CPU-bound scans, so an expired deadline stops all further
	// crowd work and skips the repair stage rather than killing the run.
	Deadline time.Duration
	// Degrade picks the policy for tuples left unanswered by budget or
	// deadline exhaustion: DegradeTrustKB (default) or DegradeMarkUnknown.
	Degrade DegradePolicy

	// Incremental keeps a session alive after Clean so Append and
	// ApplyKBDelta can extend the run: appended rows reuse the validated
	// pattern (re-checked by crowd-free replay of the §5 decisions) and only
	// the delta is annotated and repaired; KB additions are folded into the
	// session's KB snapshot, from which the table is re-cleaned. The
	// cumulative report is semantically identical to one batch Clean of the
	// merged inputs — the propcheck incremental ≡ batch differential pins
	// this down. Costs a KB snapshot (CloneExact, copy-on-write: the KB's
	// enrichment then copies only the index entries it writes) and a
	// private table copy per Clean; the caller's table is never mutated by
	// Append.
	Incremental bool

	// ValidationOracle answers "what is the true type/relationship"
	// questions; nil skips crowd validation and trusts the top pattern.
	ValidationOracle ValidationOracle
	// FactOracle answers "does this fact hold" questions; nil treats every
	// missing fact as KB incompleteness (the trusting policy).
	FactOracle FactOracle
}

// The pipeline's fixed operating points. Every run uses the paper's 0.7
// label-similarity threshold (similarity.DefaultThreshold) and enriches the
// KB with crowd-confirmed facts; the experiments that vary q or the pattern
// top-k do so on the validator and the rank join directly.
const (
	// topK is the number of candidate patterns discovery ranks (§4.3).
	topK = 10
	// questionsPerVariable (q) and tuplesPerQuestion (k_t) configure pattern
	// validation (§5).
	questionsPerVariable = 3
	tuplesPerQuestion    = 5
)

func (o Options) withDefaults() Options {
	if o.RepairK == 0 {
		o.RepairK = 3
	}
	if o.Dedup == nil {
		t := true
		o.Dedup = &t
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Workers = max(parallelism(o.Workers), parallelism(o.Shards))
	return o
}

// parallelism resolves a Workers/Shards value: negative means GOMAXPROCS,
// and anything below 1 runs serially.
func parallelism(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// trustingFacts is the nil-FactOracle policy: every missing fact is assumed
// to be KB incompleteness, never a data error.
type trustingFacts struct{}

func (trustingFacts) TypeHolds(string, rdf.ID) bool           { return true }
func (trustingFacts) RelHolds(string, rdf.ID, string) bool    { return true }
func (trustingFacts) PathHolds(string, []rdf.ID, string) bool { return true }

// Cleaner runs the KATARA pipeline against one KB and crowd.
type Cleaner struct {
	kb    *KB
	crowd *Crowd
	opts  Options
	// resolver is the shared entity-resolution cache: one memo per Cleaner,
	// threaded through discovery and annotation so a cell value resolved in
	// one stage is free in every later stage and run.
	resolver *resolve.Cache
	// session is the live incremental state (Options.Incremental): the KB
	// snapshot, memoised crowd decisions and cumulative report that Append
	// extends and ApplyKBDelta re-cleans from. nil until the first Clean.
	session *session
}

// NewCleaner builds a Cleaner. Each discovery takes the KB statistics
// (entity counts, coherence scores) of the KB as it reads then, so a run
// after an enriching Clean scores against the enriched KB; package kbstats
// computes each statistic once per KB state, the paper's offline
// pre-computation. Resilience options (Transport, Retry, Escalate) are
// installed on the crowd here; leave them zero to keep a crowd configured
// directly via crowd.Options untouched.
func NewCleaner(kb *KB, c *Crowd, opts Options) *Cleaner {
	opts = opts.withDefaults()
	if opts.Transport != nil {
		c.SetTransport(opts.Transport)
	}
	if opts.Retry != (RetryPolicy{}) {
		c.SetRetry(opts.Retry)
	}
	if opts.Escalate != (EscalationPolicy{}) {
		c.SetEscalation(opts.Escalate)
	}
	return &Cleaner{
		kb:       kb,
		crowd:    c,
		opts:     opts,
		resolver: resolve.New(kb, similarity.DefaultThreshold),
	}
}

// SetPipeline redirects subsequent runs' instrumentation to p (nil detaches
// it). Service layers that keep one incremental Cleaner across several jobs
// use this to point each increment at its own job's pipeline.
func (c *Cleaner) SetPipeline(p *TelemetryPipeline) { c.opts.Pipeline = p }

// ResolverStats returns the shared resolution cache's cumulative hit and
// miss counts (all runs of this Cleaner combined). Hits include catch-ups:
// hits on entries stored before labels were indexed (see resolve.Cache).
func (c *Cleaner) ResolverStats() (hits, misses int64) { return c.resolver.Stats() }

// KB returns the cleaner's knowledge base.
func (c *Cleaner) KB() *KB { return c.kb }

// DiscoverPatterns returns the top-k table patterns for t (§4).
func (c *Cleaner) DiscoverPatterns(t *Table) []*Pattern {
	return discovery.TopK(c.generate(t, c.kb, c.resolver, nil), topK)
}

// ValidatePattern selects one pattern from candidates via the crowd (§5).
// With no ValidationOracle configured it returns the top-scored pattern.
func (c *Cleaner) ValidatePattern(t *Table, candidates []*Pattern) (*Pattern, int) {
	p, questions, _, _ := c.validatePattern(context.Background(), t, c.kb, candidates, false)
	return p, questions
}

// validatePattern is ValidatePattern under a context, against kb. degraded
// reports that validation was cut short (deadline or budget exhausted, best
// viable pattern used). In an incremental session the crowd's decisions are
// recorded in the session's memo; with replay the validator answers from
// that memo alone, never asking the crowd, and missed reports that it
// needed a decision the memo lacks.
func (c *Cleaner) validatePattern(ctx context.Context, t *Table, kb *KB, candidates []*Pattern, replay bool) (p *Pattern, questions int, degraded, missed bool) {
	if len(candidates) == 0 {
		return nil, 0, false, false
	}
	if c.opts.ValidationOracle == nil {
		return candidates[0], 0, false, false
	}
	v := &validation.Validator{
		KB:                   kb,
		Table:                t,
		Crowd:                c.crowd,
		Oracle:               c.opts.ValidationOracle,
		QuestionsPerVariable: questionsPerVariable,
		TuplesPerQuestion:    tuplesPerQuestion,
		Rng:                  rand.New(rand.NewSource(c.opts.Seed)),
		Ctx:                  ctx,
		Replay:               replay,
	}
	if !replay {
		// A replay's steps were recorded by the run that asked the crowd.
		v.Prov = c.opts.Provenance
	}
	if c.session != nil {
		v.Memo = c.session.memo
	}
	res := v.MUVF(candidates)
	return res.Pattern, res.QuestionsAsked, res.Degraded, v.Missed
}

// Annotate labels every tuple of t against pattern p (§6.1).
func (c *Cleaner) Annotate(t *Table, p *Pattern) *annotation.Result {
	return c.annotator(context.Background(), p, nil).Annotate(t)
}

// annotator assembles the §6.1 annotator for one run at the run's
// parallelism; shared by Annotate and the pipeline driver.
func (c *Cleaner) annotator(ctx context.Context, p *Pattern, tel *telemetry.Pipeline) *annotation.Annotator {
	oracle := c.opts.FactOracle
	if oracle == nil {
		oracle = trustingFacts{}
	}
	return &annotation.Annotator{
		KB:        c.kb,
		Pattern:   p,
		Crowd:     c.crowd,
		Oracle:    oracle,
		Ctx:       ctx,
		Degrade:   c.opts.Degrade,
		Enrich:    true,
		Workers:   c.opts.Workers,
		Telemetry: tel,
		Resolver:  c.resolver,
		Prov:      c.opts.Provenance,
	}
}

// Repairs generates top-k possible repairs for the given rows of t (§6.2).
func (c *Cleaner) Repairs(t *Table, p *Pattern, rows []int) map[int][]Repair {
	return c.repairs(t, p, rows, nil, nil, nil, nil, nil)
}

// Report is the outcome of an end-to-end Clean run.
type Report struct {
	// Pattern is the validated table pattern.
	Pattern *Pattern
	// Annotations holds one entry per tuple.
	Annotations []TupleAnnotation
	// Repairs maps erroneous rows to their top-k possible repairs.
	Repairs map[int][]Repair
	// NewFacts are the crowd-confirmed facts (KB enrichment by-product).
	NewFacts []Fact
	// QuestionsAsked counts all crowd questions consumed.
	QuestionsAsked int
	// Crowd is the run's crowd accounting: questions, paid assignments, and
	// the resilience counters (retries, abandonments, timeouts,
	// escalations).
	Crowd CrowdStats
	// Degraded flags which decisions were taken under a graceful-degradation
	// policy; its zero value means the run completed normally.
	Degraded DegradeReport
	// Timings holds the run's stage wall-clocks and pipeline counters; nil
	// unless Options.Telemetry (or Options.Pipeline) is set.
	Timings *Timings
	// Provenance is the run's evidence-lineage recorder; nil unless
	// Options.Provenance was set.
	Provenance *ProvenanceRecorder
}

// DegradeReport flags the decisions of a run that were taken under a
// graceful-degradation policy after the budget or deadline ran out.
type DegradeReport struct {
	// PatternFallback: validation was cut short and the best-scored viable
	// pattern was used without full crowd confirmation.
	PatternFallback bool
	// Tuples counts annotations decided by the Degrade policy rather than
	// the crowd.
	Tuples int
	// RepairsSkipped: the deadline expired before the repair stage ran.
	RepairsSkipped bool
}

// Any reports whether any part of the run degraded.
func (d DegradeReport) Any() bool {
	return d.PatternFallback || d.RepairsSkipped || d.Tuples > 0
}

// ErrNoPattern is returned when no table pattern links the table to the KB;
// per §2, KATARA terminates in that case.
var ErrNoPattern = errors.New("katara: no table pattern found between the table and the KB")

// Clean runs the full pipeline: discover → validate → annotate → repair.
func (c *Cleaner) Clean(t *Table) (*Report, error) {
	return c.CleanContext(context.Background(), t)
}

// CleanContext is Clean bounded by ctx and the Options' budget/deadline.
// Exhausting either never aborts the run: the configured
// graceful-degradation policies take over (top-scored pattern, trust-KB or
// mark-unknown annotation, skipped repairs) and Report.Degraded records
// exactly which decisions degraded. The parallel stages fan out at
// Options.Workers; the report is identical for every value.
func (c *Cleaner) CleanContext(ctx context.Context, t *Table) (*Report, error) {
	return c.runClean(ctx, t)
}

// BestKB picks, among several KBs, the one whose top discovered pattern
// scores highest for t — the "select the more relevant KB" behaviour of §2,
// and the paper's §9 multi-KB direction. It returns the index into kbs and
// the winning score, or -1 if no KB yields a pattern.
func BestKB(t *Table, kbs []*KB, opts Options) (int, float64) {
	opts = opts.withDefaults()
	bestIdx, bestScore := -1, 0.0
	for i, kb := range kbs {
		stats := kbstats.New(kb)
		cands := discovery.Generate(t, stats, discovery.Options{
			MaxCandidates: opts.MaxCandidates,
			MaxRows:       opts.MaxRows,
		})
		ps := discovery.TopK(cands, 1)
		if len(ps) > 0 && (bestIdx == -1 || ps[0].Score > bestScore) {
			bestIdx, bestScore = i, ps[0].Score
		}
	}
	return bestIdx, bestScore
}
