// Package crowd implements the crowdsourcing substrate: a simulated worker
// pool standing in for the paper's expert crowd (10 students, §7.2). Each
// question carries its ground-truth answer (the experiment harness generates
// the data, so truth is known); workers are noisy channels around it. Every
// question is assigned to three workers and decided by majority vote, as in
// the paper (§5.1: "each question is asked three times, and the majority
// answer is taken").
//
// A resilience layer (transport.go, resilience.go) sits between Ask and the
// pool: assignments route through a pluggable Transport (fault injection for
// chaos testing), failures are retried with capped exponential backoff and
// reassigned to fresh workers, low-margin votes escalate with extra
// assignments, and question/assignment budgets plus context deadlines bound
// total consumption.
package crowd

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"katara/internal/provenance"
	"katara/internal/telemetry"
)

// Kind classifies questions per the paper's three task types.
type Kind int

const (
	// TypeValidation asks "What is the most accurate type of the
	// highlighted column?" (Q1, §5.1).
	TypeValidation Kind = iota
	// RelationshipValidation asks "What is the most accurate relationship
	// for the highlighted columns?" (Q2, §5.1).
	RelationshipValidation
	// FactVerification asks a boolean "Does x P y?" (§6.1 step 2).
	FactVerification
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TypeValidation:
		return "type-validation"
	case RelationshipValidation:
		return "relationship-validation"
	case FactVerification:
		return "fact-verification"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Question is one crowdsourcing task. Options holds the displayed choices
// (boolean questions use {"Yes", "No"}); Truth indexes the correct one.
// Difficulty in [0,1) raises worker error probability for ambiguous
// questions (e.g. a type question whose sample values belong to several
// candidate types, §5.1).
type Question struct {
	Kind       Kind
	Prompt     string
	Options    []string
	Truth      int
	Difficulty float64
}

// Boolean builds a yes/no FactVerification question.
func Boolean(prompt string, holds bool) Question {
	truth := 1
	if holds {
		truth = 0
	}
	return Question{
		Kind:    FactVerification,
		Prompt:  prompt,
		Options: []string{"Yes", "No"},
		Truth:   truth,
	}
}

// Worker is one simulated crowd member with an independent reliability.
type Worker struct {
	ID       int
	Accuracy float64 // probability of answering correctly on an easy question
}

// answer returns the worker's choice for q.
func (w Worker) answer(q Question, rng *rand.Rand) int {
	if len(q.Options) == 0 {
		return q.Truth
	}
	errP := (1 - w.Accuracy) + q.Difficulty*w.Accuracy
	if errP > 0.95 {
		errP = 0.95
	}
	if rng.Float64() >= errP || len(q.Options) == 1 {
		return q.Truth
	}
	// A wrong answer: uniform over the other options.
	wrong := rng.Intn(len(q.Options) - 1)
	if wrong >= q.Truth {
		wrong++
	}
	return wrong
}

// Stats accumulates crowdsourcing cost accounting plus the resilience
// layer's fault counters.
type Stats struct {
	Questions   int
	Assignments int
	ByKind      map[Kind]int

	// Resilience accounting: retries issued (backoff waits), assignments
	// abandoned by workers, assignments timed out, and escalation
	// assignments posted beyond the base redundancy.
	Retries      int
	Abandonments int
	Timeouts     int
	Escalations  int
}

// Cost converts the accounting into money at a per-assignment rate — the
// §1/§5 objective ("optimizing the order of issuing questions to reduce
// monetary cost") made concrete. Crowdsourcing markets price per
// assignment (each of the 3 redundant answers is paid), not per question.
func (s Stats) Cost(perAssignment float64) float64 {
	return float64(s.Assignments) * perAssignment
}

func (s *Stats) record(k Kind, assignments int) {
	s.Questions++
	s.Assignments += assignments
	if s.ByKind == nil {
		s.ByKind = make(map[Kind]int)
	}
	s.ByKind[k]++
}

// Crowd is the worker pool. All exported methods are safe for concurrent
// use: the shared rng, stats and reliability estimates are guarded by mu
// (the pipeline's parallel stages may reach the crowd from worker
// goroutines).
type Crowd struct {
	mu          sync.Mutex
	workers     []Worker
	rng         *rand.Rand
	assignments int
	stats       Stats

	// backoffRng draws retry-backoff jitter. It is deliberately separate
	// from rng: concurrent jobs must not retry in lockstep, but the
	// decision stream (worker permutations, answers) must stay untouched so
	// differential runs remain byte-identical.
	backoffRng *rand.Rand

	// Resilience layer (transport.go, resilience.go).
	transport Transport // nil = direct in-process delivery
	retry     RetryPolicy
	escalate  EscalationPolicy
	budget    *Budget // nil = unlimited

	// Quality control (quality.go): per-worker reliability estimates and
	// the weighted-voting switch.
	estimates Reliability
	weighted  bool

	// tel mirrors every question into a telemetry pipeline; nil disables.
	tel *telemetry.Pipeline

	// prov records every question's evidence lineage (per-worker votes,
	// retries, degradation) into a provenance recorder; nil disables.
	prov *provenance.Recorder
}

// Option configures a Crowd.
type Option func(*Crowd)

// WithAssignments overrides the per-question assignment count (default 3).
func WithAssignments(n int) Option {
	return func(c *Crowd) {
		if n > 0 {
			c.assignments = n
		}
	}
}

// WithTransport routes every assignment through t (nil = direct delivery).
func WithTransport(t Transport) Option {
	return func(c *Crowd) { c.transport = t }
}

// WithRetry overrides the per-assignment retry policy.
func WithRetry(r RetryPolicy) Option {
	return func(c *Crowd) { c.retry = r }
}

// WithEscalation enables adaptive redundancy under e.
func WithEscalation(e EscalationPolicy) Option {
	return func(c *Crowd) { c.escalate = e }
}

// WithBudget caps the crowd's total consumption (nil = unlimited).
func WithBudget(b *Budget) Option {
	return func(c *Crowd) { c.budget = b }
}

// jitterSeedSalt decorrelates the backoff-jitter rng from the decision rng
// while keeping both derived from the same crowd seed.
const jitterSeedSalt = 0x6a697474 // "jitt"

// newCrowd is the shared construction path: defaults applied here, workers
// and options by the callers. The backoff-jitter rng is seeded separately
// from the decision rng so jitter never perturbs worker permutations or
// answers — reports stay byte-identical with jitter on or off.
func newCrowd(rng *rand.Rand, seed int64) *Crowd {
	return &Crowd{
		rng:         rng,
		assignments: 3,
		backoffRng:  rand.New(rand.NewSource(seed ^ jitterSeedSalt)),
	}
}

func (c *Crowd) apply(opts []Option) *Crowd {
	for _, o := range opts {
		o(c)
	}
	return c
}

// New builds a crowd of n workers with the given mean accuracy. Individual
// worker accuracies are jittered ±0.05 around the mean, clamped to [0.5, 1].
// All randomness flows from seed, keeping experiments reproducible.
func New(n int, meanAccuracy float64, seed int64, opts ...Option) *Crowd {
	rng := rand.New(rand.NewSource(seed))
	c := newCrowd(rng, seed)
	for i := 0; i < n; i++ {
		acc := meanAccuracy + (rng.Float64()-0.5)*0.1
		if acc > 1 {
			acc = 1
		}
		if acc < 0.5 {
			acc = 0.5
		}
		c.workers = append(c.workers, Worker{ID: i, Accuracy: acc})
	}
	return c.apply(opts)
}

// Perfect returns a crowd of always-correct workers, for tests and for the
// paper's "experts in the KB" assumption at its limit. It accepts the same
// Options as New (accuracies are pinned to 1 rather than jittered, so the
// rng stream starts identically to the historical Perfect).
func Perfect(n int, opts ...Option) *Crowd {
	c := newCrowd(rand.New(rand.NewSource(0)), 0)
	for i := 0; i < n; i++ {
		c.workers = append(c.workers, Worker{ID: i, Accuracy: 1})
	}
	return c.apply(opts)
}

// NumWorkers returns the pool size.
func (c *Crowd) NumWorkers() int { return len(c.workers) }

// Stats returns a copy of the accumulated accounting.
func (c *Crowd) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ByKind = make(map[Kind]int, len(c.stats.ByKind))
	for k, v := range c.stats.ByKind {
		s.ByKind[k] = v
	}
	return s
}

// ResetStats clears the accounting.
func (c *Crowd) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// SetTelemetry attaches a telemetry pipeline whose CrowdQuestions counter
// tracks every question asked from now on; nil detaches it.
func (c *Crowd) SetTelemetry(p *telemetry.Pipeline) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = p
}

// SetProvenance attaches a provenance recorder that captures every question
// asked from now on — per-worker votes, resilience events, outcome; nil
// detaches it.
func (c *Crowd) SetProvenance(r *provenance.Recorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prov = r
}

// SetTransport installs t as the assignment transport (nil = direct).
func (c *Crowd) SetTransport(t Transport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transport = t
}

// SetRetry installs the retry policy.
func (c *Crowd) SetRetry(r RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = r
}

// SetEscalation installs the adaptive-redundancy policy.
func (c *Crowd) SetEscalation(e EscalationPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.escalate = e
}

// SetBudget installs (or, with nil, removes) the consumption budget.
func (c *Crowd) SetBudget(b *Budget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = b
}

// Ask routes q to `assignments` distinct randomly chosen workers and returns
// the majority answer (ties broken toward the lowest option index). With
// reliability estimates installed (Calibrate / EstimateReliability), votes
// are weighted by each worker's log-odds accuracy instead. Ask is
// AskContext without a deadline; resilience errors (exhausted budget, a
// fully failed question) degrade to option 0.
func (c *Crowd) Ask(q Question) int {
	a, _ := c.AskContext(context.Background(), q)
	return a
}

// AskBoolean asks a yes/no question and returns true for "Yes".
func (c *Crowd) AskBoolean(prompt string, holds bool) bool {
	return c.Ask(Boolean(prompt, holds)) == 0
}
