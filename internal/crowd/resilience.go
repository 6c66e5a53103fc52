// Resilience layer: retry with capped exponential backoff, reassignment to
// fresh workers on abandonment/timeout, adaptive redundancy (escalate with
// extra assignments while the vote margin is low), and question/assignment
// budgets. The paper assumes a cooperative expert crowd (§7.2); a deployed
// KATARA faces workers who abandon tasks, answer slowly, or spam, and a
// finite monetary budget — this file makes Ask survive all of that.
package crowd

import (
	"context"
	"sync"
	"time"

	"katara/internal/telemetry"
)

// RetryPolicy bounds the delivery attempts for one assignment slot.
type RetryPolicy struct {
	// MaxAttempts is the total delivery attempts per assignment slot,
	// including the first (default 3).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it (default 1ms — the simulation analogue of a market re-post
	// delay).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 16ms).
	MaxBackoff time.Duration
	// AssignmentTimeout bounds how long one assignment may stay outstanding
	// before it is treated as abandoned and reassigned (0 = wait forever,
	// i.e. only the context deadline applies).
	AssignmentTimeout time.Duration
	// Jitter in (0, 1] randomizes each backoff wait down to
	// [d·(1−Jitter), d], so concurrent jobs hitting the same
	// transient fault don't retry in lockstep (a thundering herd against
	// the crowd market). The draw comes from a dedicated rng seeded by the
	// crowd seed — never the decision rng — so enabling jitter changes
	// timing only, never answers. 0 selects the default (0.5); negative
	// disables jitter entirely.
	Jitter float64
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 16 * time.Millisecond
	}
	if r.Jitter == 0 {
		r.Jitter = 0.5
	}
	return r
}

// Backoff returns the capped exponential wait before retry attempt n
// (n = 1 is the first retry), before jitter. The jittered wait the crowd
// actually sleeps is drawn by Crowd.jitteredBackoff.
func (r RetryPolicy) Backoff(n int) time.Duration {
	r = r.withDefaults()
	d := r.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= r.MaxBackoff {
			return r.MaxBackoff
		}
	}
	if d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	return d
}

// jitteredBackoff is Backoff(n) with the policy's seeded jitter applied:
// uniform in [d·(1−Jitter), d]. Callers hold c.mu (backoffRng is guarded by
// it, like the decision rng).
func (c *Crowd) jitteredBackoff(r RetryPolicy, n int) time.Duration {
	d := r.Backoff(n)
	j := r.withDefaults().Jitter
	if j <= 0 || d <= 0 || c.backoffRng == nil {
		return d
	}
	if j > 1 {
		j = 1
	}
	return time.Duration(float64(d) * (1 - j*c.backoffRng.Float64()))
}

// EscalationPolicy is adaptive redundancy (§5.1 asks every question exactly
// three times; under an unreliable crowd a close vote deserves more
// evidence): when the normalised vote margin after the base assignments is
// below MinMargin, extra assignments are posted one at a time up to
// MaxAssignments.
type EscalationPolicy struct {
	// MinMargin in [0,1]: escalate while (best − runnerUp) / totalWeight is
	// below it. 0 disables escalation (the paper's fixed-redundancy mode).
	MinMargin float64
	// MaxAssignments caps the per-question assignment count once escalation
	// is on (0 = 2·base+1).
	MaxAssignments int
}

// cap resolves the assignment ceiling for a base redundancy of n.
func (e EscalationPolicy) cap(n int) int {
	if e.MinMargin <= 0 {
		return n
	}
	m := e.MaxAssignments
	if m <= 0 {
		m = 2*n + 1
	}
	if m < n {
		m = n
	}
	return m
}

// Budget is a shared, concurrency-safe cap on crowd consumption for one
// pipeline run. A nil *Budget is unlimited. Zero caps mean unlimited for
// that dimension.
type Budget struct {
	mu           sync.Mutex
	maxQuestions int
	maxAssign    int
	questions    int
	assignments  int
}

// NewBudget builds a budget capping questions and/or assignments
// (0 = unlimited in that dimension).
func NewBudget(questions, assignments int) *Budget {
	return &Budget{maxQuestions: questions, maxAssign: assignments}
}

// TakeQuestion consumes one question from the budget, reporting false when
// exhausted.
func (b *Budget) TakeQuestion() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxQuestions > 0 && b.questions >= b.maxQuestions {
		return false
	}
	b.questions++
	return true
}

// TakeAssignment consumes one assignment, reporting false when exhausted.
func (b *Budget) TakeAssignment() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxAssign > 0 && b.assignments >= b.maxAssign {
		return false
	}
	b.assignments++
	return true
}

// Spent reports the consumed questions and assignments.
func (b *Budget) Spent() (questions, assignments int) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.questions, b.assignments
}

// vote is one collected answer with its voting weight (1 for plain
// majority, log-odds reliability for weighted voting).
type vote struct {
	opt    int
	weight float64
}

// AskContext is Ask with a deadline and the resilience layer engaged: each
// assignment is routed through the transport, retried with capped
// exponential backoff on transient errors, reassigned to a fresh worker on
// abandonment or timeout, and — when an EscalationPolicy is configured —
// topped up with extra assignments while the vote margin is low.
//
// If the context expires or the budget runs out mid-question, the answers
// already collected still decide the question; only a question with no
// answers at all returns an error (ErrBudget or the context error), which
// callers translate into their graceful-degradation policy.
func (c *Crowd) AskContext(ctx context.Context, q Question) (answer int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.budget.TakeQuestion() {
		return 0, ErrBudget
	}

	n := c.assignments
	if n > len(c.workers) {
		n = len(c.workers)
	}
	c.tel.Inc(telemetry.CrowdQuestions)

	// Observe the whole round-trip — base assignments, backoff waits,
	// simulated latency, reassignments and escalations — as one span and one
	// histogram sample. The stage timers only see validation/annotation as a
	// block; this is where per-question p99s under fault injection come from.
	qStart := c.tel.StartTimer()
	qSpan := c.tel.StartSpan("crowd-question")
	qid := c.prov.StartQuestion(q.Kind.String(), q.Prompt, q.Options)
	var qRetries, qEscalations, qTimeouts, qAbandonments int64

	// One permutation serves the base assignments, reassignments and
	// escalations: fresh workers are taken in perm order, wrapping around
	// when the pool is exhausted. Drawing the full Perm up front keeps the
	// rng stream byte-identical to the pre-resilience Ask.
	perm := c.rng.Perm(len(c.workers))
	widx := 0

	retry := c.retry.withDefaults()
	maxSlots := c.escalate.cap(n)
	var (
		votes     []vote
		delivered int
		stop      error // first budget/deadline interruption
	)
	defer func() {
		qSpan.SetStr("kind", q.Kind.String())
		qSpan.SetInt("assignments", int64(delivered))
		qSpan.SetInt("retries", qRetries)
		qSpan.SetInt("escalations", qEscalations)
		qSpan.SetInt("timeouts", qTimeouts)
		qSpan.SetInt("abandonments", qAbandonments)
		qSpan.End()
		c.tel.ObserveSince(telemetry.HistCrowdQuestion, qStart)
		if c.prov.Enabled() {
			errMsg := ""
			if err != nil {
				errMsg = err.Error()
			}
			c.prov.FinishQuestion(qid, answer, qRetries, qTimeouts, qAbandonments, qEscalations, errMsg)
		}
	}()

	// collect runs one assignment slot to completion (an answer or a
	// permanently failed slot) and reports whether collection may continue.
	collect := func() bool {
		for attempt := 1; ; attempt++ {
			if err := ctx.Err(); err != nil {
				stop = err
				return false
			}
			if !c.budget.TakeAssignment() {
				stop = ErrBudget
				return false
			}
			wi := perm[widx%len(perm)]
			w := c.workers[wi]
			d := c.transportOrDirect().Deliver(q, w, func() int {
				return w.answer(q, c.rng)
			})
			delivered++

			// Charge the simulated latency against the deadline; an
			// assignment outstanding past AssignmentTimeout is treated as
			// abandoned by timeout.
			wait := d.Latency
			timedOut := false
			if retry.AssignmentTimeout > 0 && wait > retry.AssignmentTimeout {
				wait, timedOut = retry.AssignmentTimeout, true
			}
			if wait > 0 {
				if err := c.sleep(ctx, wait); err != nil {
					c.stats.Timeouts++
					c.tel.Inc(telemetry.CrowdTimeouts)
					qTimeouts++
					stop = err
					return false
				}
			}

			fault := d.Err
			if timedOut {
				fault = ErrAbandoned
				c.stats.Timeouts++
				c.tel.Inc(telemetry.CrowdTimeouts)
				qTimeouts++
			}
			switch fault {
			case nil:
				widx++
				weight := 1.0
				if c.weighted {
					weight = logOdds(c.estimates[wi])
				}
				votes = append(votes, vote{opt: d.Answer, weight: weight})
				c.prov.AddVote(qid, w.ID, d.Answer, weight)
				return true
			case ErrAbandoned:
				// Reassign to a fresh worker: advance past the abandoner.
				widx++
				if !timedOut {
					c.stats.Abandonments++
					c.tel.Inc(telemetry.CrowdAbandonments)
					qAbandonments++
				}
			case ErrTransient:
				// Retry the same worker after the backoff: widx stays.
			}
			if attempt >= retry.MaxAttempts {
				widx++ // slot failed for good; move on past this worker
				return true
			}
			c.stats.Retries++
			c.tel.Inc(telemetry.CrowdRetries)
			qRetries++
			if err := c.sleep(ctx, c.jitteredBackoff(retry, attempt)); err != nil {
				stop = err
				return false
			}
		}
	}

	slots := 0
	for ; slots < n; slots++ {
		if !collect() {
			break
		}
	}
	// Adaptive redundancy: top up while the margin is unconvincing. An
	// empty pool has nobody to escalate to (and collect's worker pick
	// would divide by zero): fall through to the degenerate-pool return.
	for stop == nil && len(c.workers) > 0 && slots < maxSlots && voteMargin(votes) < c.escalate.MinMargin {
		c.stats.Escalations++
		c.tel.Inc(telemetry.CrowdEscalations)
		qEscalations++
		if !collect() {
			break
		}
		slots++
	}

	c.stats.record(q.Kind, delivered)
	c.tel.Add(telemetry.CrowdAssignments, int64(delivered))
	if len(votes) == 0 {
		if stop != nil {
			return 0, stop
		}
		if len(c.workers) == 0 {
			return 0, nil // degenerate empty pool: pre-resilience behaviour
		}
		return 0, ErrNoAnswers
	}
	return decide(q, votes), nil
}

// AskBooleanContext asks a yes/no question under ctx and returns true for
// "Yes".
func (c *Crowd) AskBooleanContext(ctx context.Context, prompt string, holds bool) (bool, error) {
	a, err := c.AskContext(ctx, Boolean(prompt, holds))
	return a == 0 && err == nil, err
}

// sleep waits for d without holding the crowd lock, honouring ctx.
// Caller holds c.mu.
func (c *Crowd) sleep(ctx context.Context, d time.Duration) error {
	c.mu.Unlock()
	defer c.mu.Lock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transportOrDirect resolves the configured transport (nil = direct).
func (c *Crowd) transportOrDirect() Transport {
	if c.transport != nil {
		return c.transport
	}
	return directTransport{}
}

// voteMargin is the normalised gap between the leading and runner-up
// options: (best − second) / Σ|weight|. No votes → 0 (maximally uncertain).
func voteMargin(votes []vote) float64 {
	if len(votes) == 0 {
		return 0
	}
	byOpt := map[int]float64{}
	total := 0.0
	for _, v := range votes {
		byOpt[v.opt] += v.weight
		if v.weight < 0 {
			total -= v.weight
		} else {
			total += v.weight
		}
	}
	if total == 0 {
		return 0
	}
	best, second := 0.0, 0.0
	first := true
	for _, w := range byOpt {
		switch {
		case first || w > best:
			if !first {
				second = best
			}
			best = w
			first = false
		case w > second:
			second = w
		}
	}
	m := (best - second) / total
	if m < 0 {
		return 0
	}
	return m
}

// decide aggregates votes into the winning option: highest summed weight,
// ties broken toward the lowest option index (the pre-resilience rule for
// both plain and weighted voting).
func decide(q Question, votes []vote) int {
	byOpt := map[int]float64{}
	maxOpt := len(q.Options)
	for _, v := range votes {
		byOpt[v.opt] += v.weight
		if v.opt >= maxOpt {
			maxOpt = v.opt + 1
		}
	}
	best, bestW, have := 0, 0.0, false
	for opt := 0; opt < maxOpt; opt++ {
		if w, ok := byOpt[opt]; ok && (!have || w > bestW) {
			best, bestW, have = opt, w, true
		}
	}
	return best
}
