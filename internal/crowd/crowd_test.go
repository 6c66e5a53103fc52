package crowd

import (
	"context"
	"math"
	"testing"
)

// Ask is AskContext without a deadline; resilience errors (exhausted
// budget, a fully failed question) degrade to option 0.
func (c *Crowd) Ask(q Question) int {
	a, _ := c.AskContext(context.Background(), q)
	return a
}

func TestPerfectCrowdAlwaysCorrect(t *testing.T) {
	c := Perfect(10)
	q := Question{
		Kind:    TypeValidation,
		Prompt:  "What is the most accurate type of the highlighted column?",
		Options: []string{"country", "economy", "state", "none of the above"},
		Truth:   0,
	}
	for i := 0; i < 50; i++ {
		if got := c.Ask(q); got != 0 {
			t.Fatalf("perfect crowd answered %d", got)
		}
	}
}

func TestBooleanQuestions(t *testing.T) {
	c := Perfect(3)
	if c.Ask(Boolean("Does S. Africa hasCapital Pretoria?", true)) != 0 {
		t.Fatal("expected Yes")
	}
	if c.Ask(Boolean("Does Italy hasCapital Madrid?", false)) == 0 {
		t.Fatal("expected No")
	}
}

func TestMajorityVotingBeatsIndividualError(t *testing.T) {
	// With 90% accurate workers and 3-way majority, the aggregated error
	// rate must be well below the individual 10%.
	c := New(10, 0.9, 42)
	q := Question{Kind: FactVerification, Options: []string{"Yes", "No"}, Truth: 0}
	wrong := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if c.Ask(q) != 0 {
			wrong++
		}
	}
	rate := float64(wrong) / trials
	// Theoretical 3-vote majority error at p=0.1 is ~0.028.
	if rate > 0.07 {
		t.Fatalf("aggregated error rate %f too high", rate)
	}
	if rate == 0 {
		t.Fatal("noisy crowd should make some mistakes over 2000 trials")
	}
}

func TestDifficultyRaisesErrors(t *testing.T) {
	easyCrowd := New(10, 0.9, 7)
	hardCrowd := New(10, 0.9, 7)
	easy := Question{Kind: TypeValidation, Options: []string{"a", "b", "c"}, Truth: 1}
	hard := easy
	hard.Difficulty = 0.6
	wrongEasy, wrongHard := 0, 0
	for i := 0; i < 2000; i++ {
		if easyCrowd.Ask(easy) != 1 {
			wrongEasy++
		}
		if hardCrowd.Ask(hard) != 1 {
			wrongHard++
		}
	}
	if wrongHard <= wrongEasy {
		t.Fatalf("difficulty had no effect: easy=%d hard=%d", wrongEasy, wrongHard)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := Perfect(5)
	c.Ask(Question{Kind: TypeValidation, Options: []string{"a", "b"}, Truth: 0})
	c.Ask(Question{Kind: RelationshipValidation, Options: []string{"a", "b"}, Truth: 0})
	c.Ask(Boolean("x?", true))
	s := c.Stats()
	if s.Questions != 3 {
		t.Fatalf("Questions = %d", s.Questions)
	}
	if s.Assignments != 9 {
		t.Fatalf("Assignments = %d, want 9 (3 questions x 3 workers)", s.Assignments)
	}
	if s.ByKind[TypeValidation] != 1 || s.ByKind[FactVerification] != 1 {
		t.Fatalf("ByKind = %v", s.ByKind)
	}
	c.ResetStats()
	if c.Stats().Questions != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestStatsReturnsCopy(t *testing.T) {
	c := Perfect(3)
	c.Ask(Boolean("x?", true))
	s := c.Stats()
	s.ByKind[TypeValidation] = 99
	if c.Stats().ByKind[TypeValidation] == 99 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestAssignmentsCappedByPoolSize(t *testing.T) {
	c := Perfect(2)
	c.Ask(Boolean("x?", true))
	if got := c.Stats().Assignments; got != 2 {
		t.Fatalf("Assignments = %d, want 2", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		c := New(10, 0.8, 123)
		q := Question{Kind: TypeValidation, Options: []string{"a", "b", "c"}, Truth: 2, Difficulty: 0.2}
		var out []int
		for i := 0; i < 100; i++ {
			out = append(out, c.Ask(q))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("crowd is nondeterministic for a fixed seed")
		}
	}
}

func TestWorkerAccuracyClamped(t *testing.T) {
	c := New(50, 1.5, 9)
	for _, w := range c.workers {
		if w.Accuracy < 0.5 || w.Accuracy > 1 {
			t.Fatalf("worker accuracy %f out of range", w.Accuracy)
		}
	}
	c2 := New(50, 0.0, 9)
	for _, w := range c2.workers {
		if w.Accuracy < 0.5 {
			t.Fatalf("low-accuracy worker not clamped: %f", w.Accuracy)
		}
	}
}

func TestAmbiguityProbabilityModel(t *testing.T) {
	// §5.1: the probability that all q·kt sampled values are ambiguous is
	// p^(q·kt); with p=0.8, q=5, kt=5 it is ~0.0038. Verify the arithmetic
	// the paper relies on (a sanity check of our difficulty modelling).
	p := 0.8
	got := math.Pow(p, 25)
	if math.Abs(got-0.0038) > 0.0002 {
		t.Fatalf("p^25 = %f, want ~0.0038", got)
	}
}

func TestKindString(t *testing.T) {
	if TypeValidation.String() != "type-validation" ||
		RelationshipValidation.String() != "relationship-validation" ||
		FactVerification.String() != "fact-verification" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind formatting broken")
	}
}
