package crowd

import (
	"context"
	"errors"
	"testing"
	"time"
)

// These tests pin the Budget/deadline interplay at its edges: a budget that
// runs dry in the middle of an escalation, and a deadline that expires in
// the waits between a retry and a reassignment. Both must degrade — return
// what was collected, or a clean error — never hang or panic.

// scriptedTransport replaces worker answers with a scripted function of the
// delivery counter.
type scriptedTransport struct {
	n       int
	deliver func(i int, q Question) Delivery
}

func (s *scriptedTransport) Deliver(q Question, _ Worker, _ func() int) Delivery {
	d := s.deliver(s.n, q)
	s.n++
	return d
}

// TestBudgetExhaustedMidEscalation splits the vote so the margin never
// convinces the escalation policy, and caps the assignment budget below the
// escalation ceiling. The question must still resolve from the votes
// collected before the budget ran out.
func TestBudgetExhaustedMidEscalation(t *testing.T) {
	split := &scriptedTransport{deliver: func(i int, _ Question) Delivery {
		return Delivery{Answer: i % 2}
	}}
	b := NewBudget(0, 7)
	c := Perfect(5,
		WithTransport(split),
		withEscalation(EscalationPolicy{MinMargin: 0.9, MaxAssignments: 50}),
		withBudget(b),
	)

	done := make(chan struct{})
	var got int
	var err error
	go func() {
		defer close(done)
		got, err = c.AskContext(context.Background(), Boolean("split vote", true))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AskContext hung with budget exhausted mid-escalation")
	}

	if err != nil {
		t.Fatalf("collected votes must decide the question, got error %v", err)
	}
	// 7 alternating votes: four for option 0, three for option 1.
	if got != 0 {
		t.Fatalf("answer = %d, want plurality option 0", got)
	}
	st := c.Stats()
	if st.Escalations == 0 {
		t.Fatal("low margin never escalated; the test exercised nothing")
	}
	if spent := b.assignments; spent != 7 {
		t.Fatalf("assignments spent = %d, want the full budget of 7", spent)
	}

	// The next question has no budget at all: no votes, clean ErrBudget.
	if _, err := c.AskContext(context.Background(), Boolean("after budget", true)); !errors.Is(err, ErrBudget) {
		t.Fatalf("post-budget question: err = %v, want ErrBudget", err)
	}
}

// TestDeadlineDuringRetryBackoff makes every delivery fail transiently so
// AskContext lives in the retry backoff, then expires the deadline there.
// It must return the context error promptly — not sleep out the full retry
// schedule, not hang.
func TestDeadlineDuringRetryBackoff(t *testing.T) {
	flaky := &scriptedTransport{deliver: func(int, Question) Delivery {
		return Delivery{Err: ErrTransient}
	}}
	c := Perfect(3,
		WithTransport(flaky),
		withRetry(RetryPolicy{MaxAttempts: 50, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 35*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := c.AskContext(ctx, Boolean("flaky", true))
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("AskContext took %v to notice a 35ms deadline", elapsed)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded; the deadline never raced the backoff")
	}
}

// TestDeadlineBetweenAbandonmentAndReassignment abandons every assignment
// after simulated latency, so the deadline expires in the latency wait
// between one worker abandoning and the next being assigned.
func TestDeadlineBetweenAbandonmentAndReassignment(t *testing.T) {
	ghosting := &scriptedTransport{deliver: func(int, Question) Delivery {
		return Delivery{Err: ErrAbandoned, Latency: 20 * time.Millisecond}
	}}
	c := Perfect(5, WithTransport(ghosting), withRetry(RetryPolicy{MaxAttempts: 50}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := c.AskContext(ctx, Boolean("ghosted", true))
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("AskContext took %v to notice a 30ms deadline", elapsed)
	}
	if st := c.Stats(); st.Abandonments == 0 && st.Timeouts == 0 {
		t.Fatal("no abandonment recorded before the deadline hit")
	}
}

// TestBudgetExhaustedMidQuestionKeepsVotes: the budget covers only part of
// the base redundancy; the collected votes still decide the question.
func TestBudgetExhaustedMidQuestionKeepsVotes(t *testing.T) {
	c := Perfect(5, withBudget(NewBudget(0, 2)))
	got, err := c.AskContext(context.Background(), Boolean("partial", true))
	if err != nil {
		t.Fatalf("two collected votes must decide the question, got error %v", err)
	}
	if got != 0 {
		t.Fatalf("answer = %d, want the truthful option 0", got)
	}
}

// TestEmptyPoolEscalationDoesNotPanic is the regression test for the
// escalation loop dividing by zero on an empty worker pool: with nobody to
// ask, escalation must fall through to the degenerate-pool answer instead
// of picking from an empty permutation.
func TestEmptyPoolEscalationDoesNotPanic(t *testing.T) {
	c := Perfect(0, withEscalation(EscalationPolicy{MinMargin: 0.6}))
	got, err := c.AskContext(context.Background(), Boolean("nobody home", true))
	if err != nil {
		t.Fatalf("empty pool: err = %v, want the degenerate nil error", err)
	}
	if got != 0 {
		t.Fatalf("empty pool answer = %d, want 0", got)
	}
}

// Constructor-option shorthands for the setters the pipeline calls.
func withRetry(r RetryPolicy) Option           { return func(c *Crowd) { c.SetRetry(r) } }
func withEscalation(e EscalationPolicy) Option { return func(c *Crowd) { c.SetEscalation(e) } }
func withBudget(b *Budget) Option              { return func(c *Crowd) { c.SetBudget(b) } }
