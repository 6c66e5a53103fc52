package crowd

import (
	"math"
	"math/rand"
	"testing"
)

// mixedCrowd builds a pool with known good and bad workers.
func mixedCrowd(seed int64) *Crowd {
	c := &Crowd{rng: rand.New(rand.NewSource(seed)), assignments: 5}
	for i := 0; i < 6; i++ {
		c.workers = append(c.workers, Worker{ID: i, Accuracy: 0.95})
	}
	for i := 6; i < 10; i++ {
		c.workers = append(c.workers, Worker{ID: i, Accuracy: 0.55})
	}
	return c
}

func goldBatch(n int) []Question {
	qs := make([]Question, n)
	for i := range qs {
		qs[i] = Question{
			Kind:    FactVerification,
			Options: []string{"a", "b", "c", "d"},
			Truth:   i % 4,
		}
	}
	return qs
}

func TestCalibrateSeparatesWorkers(t *testing.T) {
	c := mixedCrowd(1)
	est := c.Calibrate(goldBatch(60))
	if len(est) != 10 {
		t.Fatalf("estimates = %d", len(est))
	}
	for i := 0; i < 6; i++ {
		if est[i] < 0.8 {
			t.Errorf("good worker %d estimated %.2f", i, est[i])
		}
	}
	for i := 6; i < 10; i++ {
		if est[i] > 0.8 {
			t.Errorf("bad worker %d estimated %.2f", i, est[i])
		}
	}
	// Calibration is accounted.
	if c.Stats().Questions != 60 {
		t.Fatalf("questions = %d", c.Stats().Questions)
	}
}

func TestEstimateReliabilityWithoutGold(t *testing.T) {
	c := mixedCrowd(2)
	est := c.EstimateReliability(goldBatch(80), 15)
	var goodAvg, badAvg float64
	for i := 0; i < 6; i++ {
		goodAvg += est[i] / 6
	}
	for i := 6; i < 10; i++ {
		badAvg += est[i] / 4
	}
	if goodAvg <= badAvg+0.15 {
		t.Fatalf("EM failed to separate workers: good %.2f vs bad %.2f", goodAvg, badAvg)
	}
}

func TestWeightedVotingBeatsMajorityWithBadWorkers(t *testing.T) {
	run := func(weighted bool) int {
		c := mixedCrowd(3)
		c.assignments = 10 // everyone votes: 6 good, 4 bad
		if weighted {
			c.Calibrate(goldBatch(60))
		}
		q := Question{Kind: FactVerification, Options: []string{"a", "b"}, Truth: 1}
		wrong := 0
		for i := 0; i < 1500; i++ {
			if c.Ask(q) != 1 {
				wrong++
			}
		}
		return wrong
	}
	plain := run(false)
	weighted := run(true)
	if weighted > plain {
		t.Fatalf("weighted voting (%d wrong) should not underperform majority (%d wrong)",
			weighted, plain)
	}
}

func TestSetWeightedVotingRequiresEstimates(t *testing.T) {
	c := mixedCrowd(4)
	c.SetWeightedVoting(true)
	if c.weighted {
		t.Fatal("weighted voting enabled without estimates")
	}
	c.Calibrate(goldBatch(10))
	c.SetWeightedVoting(false)
	if c.weighted {
		t.Fatal("SetWeightedVoting(false) ignored")
	}
	c.SetWeightedVoting(true)
	if !c.weighted {
		t.Fatal("SetWeightedVoting(true) ignored with estimates present")
	}
}

func TestEstimatesReturnsCopy(t *testing.T) {
	c := mixedCrowd(5)
	if c.Estimates() != nil {
		t.Fatal("estimates before calibration should be nil")
	}
	c.Calibrate(goldBatch(10))
	e := c.Estimates()
	e[0] = -1
	if c.estimates[0] == -1 {
		t.Fatal("Estimates leaked internal slice")
	}
}

func TestLogOddsClamped(t *testing.T) {
	if logOdds(0) != logOdds(0.01) || logOdds(1) != logOdds(0.99) {
		t.Fatal("logOdds must clamp the endpoints")
	}
	if logOdds(0.5) != 0 {
		t.Fatalf("logOdds(0.5) = %f, want 0", logOdds(0.5))
	}
	if logOdds(0.9) <= logOdds(0.6) {
		t.Fatal("logOdds must be increasing")
	}
}

func TestCalibrateDeterministicUnderFixedSeed(t *testing.T) {
	run := func() Reliability {
		return mixedCrowd(11).Calibrate(goldBatch(40))
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimate %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEstimateReliabilityDeterministicUnderFixedSeed(t *testing.T) {
	run := func() Reliability {
		return mixedCrowd(12).EstimateReliability(goldBatch(40), 10)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimate %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWeightedVoteOutweighsNoisyMajority(t *testing.T) {
	// One highly reliable worker (log-odds ≈ 2.94) must outvote four
	// barely-better-than-chance workers (log-odds ≈ 0.20 each) who agree on
	// the wrong option — the point of weighted voting.
	expert := logOdds(0.95)
	noisy := logOdds(0.55)
	votes := []vote{
		{opt: 1, weight: expert},
		{opt: 0, weight: noisy}, {opt: 0, weight: noisy},
		{opt: 0, weight: noisy}, {opt: 0, weight: noisy},
	}
	q := Question{Options: []string{"a", "b"}}
	if got := decide(q, votes); got != 1 {
		t.Fatalf("decide = %d, want the expert's option 1", got)
	}
	// Under plain (unit-weight) voting the noisy majority wins instead.
	for i := range votes {
		votes[i].weight = 1
	}
	if got := decide(q, votes); got != 0 {
		t.Fatalf("plain decide = %d, want the majority's option 0", got)
	}
}

func TestStatsCost(t *testing.T) {
	c := Perfect(5)
	c.Ask(Boolean("x?", true))
	c.Ask(Boolean("y?", true))
	// 2 questions x 3 assignments at $0.05 each.
	if got := c.Stats().Cost(0.05); math.Abs(got-0.30) > 1e-12 {
		t.Fatalf("Cost = %f, want 0.30", got)
	}
}
