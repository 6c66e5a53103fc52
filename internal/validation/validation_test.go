package validation

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"katara/internal/crowd"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/table"
)

// ExpectedUncertaintyReduction computes E[ΔH(φ)](v) from first principles
// (the left-hand side of Theorem 1): the reference MUVF's entropy shortcut
// is checked against.
func ExpectedUncertaintyReduction(ps []*pattern.Pattern, probs []float64, v Variable) float64 {
	byVal := map[rdf.ID][]float64{}
	for i, p := range ps {
		byVal[Assignment(p, v)] = append(byVal[Assignment(p, v)], probs[i])
	}
	hNow := Entropy(probs)
	// Same deterministic summation order as VariableEntropy.
	ids := make([]rdf.ID, 0, len(byVal))
	for id := range byVal {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	expected := 0.0
	for _, id := range ids {
		sub := byVal[id]
		pa := 0.0
		for _, x := range sub {
			pa += x
		}
		if pa == 0 {
			continue
		}
		cond := make([]float64, len(sub))
		for i, x := range sub {
			cond[i] = x / pa
		}
		expected += pa * Entropy(cond)
	}
	return hNow - expected
}

// example8 reproduces the five patterns of Example 8 over columns B (type),
// C (type) and the pair (B,C). Scores: 2.8, 2, 2, 0.8, 0.4 giving
// probabilities 0.35, 0.25, 0.25, 0.1, 0.05.
type ex8 struct {
	kb                                     *rdf.Store
	country, economy, state, capital, city rdf.ID
	hasCapital, locatedIn                  rdf.ID
	patterns                               []*pattern.Pattern
}

func newEx8() *ex8 {
	kb := rdf.New()
	e := &ex8{kb: kb}
	e.country = kb.Res("country")
	e.economy = kb.Res("economy")
	e.state = kb.Res("state")
	e.capital = kb.Res("capital")
	e.city = kb.Res("city")
	e.hasCapital = kb.Res("hasCapital")
	e.locatedIn = kb.Res("locatedIn")
	mk := func(tb, tc, rel rdf.ID, score float64) *pattern.Pattern {
		return &pattern.Pattern{
			Nodes: []pattern.Node{{Column: 1, Type: tb}, {Column: 2, Type: tc}},
			Edges: []pattern.Edge{{From: 1, To: 2, Prop: rel}},
			Score: score,
		}
	}
	e.patterns = []*pattern.Pattern{
		mk(e.country, e.capital, e.hasCapital, 2.8),
		mk(e.economy, e.capital, e.hasCapital, 2),
		mk(e.country, e.city, e.locatedIn, 2),
		mk(e.country, e.capital, e.locatedIn, 0.8),
		mk(e.state, e.capital, e.hasCapital, 0.4),
	}
	return e
}

type fixedOracle struct {
	types map[int]rdf.ID
	rels  map[[2]int]rdf.ID
}

func (o fixedOracle) TrueType(col int) rdf.ID     { return o.types[col] }
func (o fixedOracle) TrueRel(from, to int) rdf.ID { return o.rels[[2]int{from, to}] }

func (e *ex8) oracle() fixedOracle {
	return fixedOracle{
		types: map[int]rdf.ID{1: e.country, 2: e.capital},
		rels:  map[[2]int]rdf.ID{{1, 2}: e.hasCapital},
	}
}

func (e *ex8) validator(c *crowd.Crowd) *Validator {
	tbl := table.New("t", "A", "B", "C")
	tbl.Append("Rossi", "Italy", "Rome")
	tbl.Append("Pirlo", "Italy", "Madrid")
	return &Validator{
		KB: e.kb, Table: tbl, Crowd: c, Oracle: e.oracle(),
		Rng: rand.New(rand.NewSource(5)),
	}
}

func TestProbabilitiesMatchExample8(t *testing.T) {
	e := newEx8()
	probs := Probabilities(e.patterns)
	want := []float64{0.35, 0.25, 0.25, 0.1, 0.05}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-9 {
			t.Fatalf("prob[%d] = %f, want %f", i, probs[i], want[i])
		}
	}
}

func TestProbabilitiesRankStable(t *testing.T) {
	e := newEx8()
	probs := Probabilities(e.patterns)
	for i := 1; i < len(probs); i++ {
		if e.patterns[i].Score > e.patterns[i-1].Score && probs[i] <= probs[i-1] {
			t.Fatal("probability translation is not rank-stable")
		}
	}
}

func TestVariableEntropiesMatchExample9(t *testing.T) {
	e := newEx8()
	probs := Probabilities(e.patterns)
	vars := Variables(e.patterns)
	if len(vars) != 3 {
		t.Fatalf("vars = %v", vars)
	}
	hB := VariableEntropy(e.patterns, probs, Variable{Col: 1})
	hC := VariableEntropy(e.patterns, probs, Variable{Col: 2})
	hBC := VariableEntropy(e.patterns, probs, Variable{IsPair: true, From: 1, To: 2})
	// Example 9: H(vB)=1.07, H(vC)=0.81, H(vBC)=0.93.
	if math.Abs(hB-1.07) > 0.01 {
		t.Fatalf("H(vB) = %f, want 1.07", hB)
	}
	if math.Abs(hC-0.81) > 0.01 {
		t.Fatalf("H(vC) = %f, want 0.81", hC)
	}
	if math.Abs(hBC-0.93) > 0.01 {
		t.Fatalf("H(vBC) = %f, want 0.93", hBC)
	}
}

func TestTheorem1(t *testing.T) {
	// E[ΔH(φ)](v) = H(v) for every variable.
	e := newEx8()
	probs := Probabilities(e.patterns)
	for _, v := range Variables(e.patterns) {
		lhs := ExpectedUncertaintyReduction(e.patterns, probs, v)
		rhs := VariableEntropy(e.patterns, probs, v)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("Theorem 1 violated for %v: E[ΔH]=%f, H=%f", v, lhs, rhs)
		}
	}
}

func TestMUVFFollowsExample9Schedule(t *testing.T) {
	// With a perfect crowd, MUVF must validate B first (H=1.07), then the
	// pair (new entropies: H(vC)=0.93, H(vBC)=1.0), converging to φ1 with
	// only 2 variables — never needing vC.
	e := newEx8()
	v := e.validator(crowd.Perfect(10))
	res := v.MUVF(e.patterns)
	if res.VariablesValidated != 2 {
		t.Fatalf("MUVF validated %d variables, want 2", res.VariablesValidated)
	}
	if res.Pattern.TypeOf(1) != e.country || res.Pattern.TypeOf(2) != e.capital {
		t.Fatal("MUVF converged to the wrong pattern")
	}
	if res.Pattern.EdgeBetween(1, 2).Prop != e.hasCapital {
		t.Fatal("MUVF picked wrong relationship")
	}
}

func TestAVIValidatesMoreVariables(t *testing.T) {
	e := newEx8()
	muvf := e.validator(crowd.Perfect(10)).MUVF(e.patterns)
	avi := e.validator(crowd.Perfect(10)).AVI(e.patterns)
	if avi.Pattern.Key() != muvf.Pattern.Key() {
		t.Fatal("AVI and MUVF disagree under a perfect crowd")
	}
	if avi.VariablesValidated < muvf.VariablesValidated {
		t.Fatalf("AVI validated %d < MUVF %d", avi.VariablesValidated, muvf.VariablesValidated)
	}
}

func TestNoisyCrowdConvergesWithMoreQuestions(t *testing.T) {
	// Figure 7's shape: accuracy of the validated pattern improves with q.
	e := newEx8()
	correct := func(q int, seed int64) int {
		hits := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			v := e.validator(crowd.New(10, 0.75, seed+int64(i)))
			v.QuestionsPerVariable = q
			res := v.MUVF(e.patterns)
			if res.Pattern != nil && res.Pattern.TypeOf(1) == e.country &&
				res.Pattern.EdgeBetween(1, 2) != nil &&
				res.Pattern.EdgeBetween(1, 2).Prop == e.hasCapital {
				hits++
			}
		}
		return hits
	}
	lo := correct(1, 100)
	hi := correct(7, 100)
	if hi < lo {
		t.Fatalf("more questions reduced accuracy: q=1 %d vs q=7 %d", lo, hi)
	}
	if hi < 50 {
		t.Fatalf("q=7 accuracy too low: %d/60", hi)
	}
}

func TestNoneOfTheAbove(t *testing.T) {
	// Oracle says the true type of B is not among the candidates: the crowd
	// answers "none of the above", and the B node is removed from every
	// candidate — the crowd established that no candidate type is right.
	e := newEx8()
	other := e.kb.Res("somethingelse")
	v := e.validator(crowd.Perfect(10))
	v.Oracle = fixedOracle{
		types: map[int]rdf.ID{1: other, 2: e.capital},
		rels:  map[[2]int]rdf.ID{{1, 2}: e.hasCapital},
	}
	res := v.MUVF(e.patterns)
	if res.Pattern == nil {
		t.Fatal("validation must still return a pattern")
	}
	if res.Pattern.TypeOf(1) != rdf.NoID {
		t.Fatal("rejected B node should be stripped from the pattern")
	}
	if res.Pattern.TypeOf(2) != e.capital {
		t.Fatal("C should be validated to capital")
	}
	// The callers' patterns are untouched.
	if e.patterns[0].TypeOf(1) == rdf.NoID {
		t.Fatal("MUVF mutated its input patterns")
	}
}

func TestFilterSemantics(t *testing.T) {
	e := newEx8()
	kept := filter(e.patterns, Variable{Col: 1}, e.country)
	if len(kept) != 3 {
		t.Fatalf("P(vB=country) has %d patterns, want 3 (Example 8)", len(kept))
	}
	if got := filter(e.patterns, Variable{Col: 1}, rdf.NoID); len(got) != len(e.patterns) {
		t.Fatal("none-answer must prune nothing")
	}
}

func TestRenormalisationAfterFilter(t *testing.T) {
	// Example 9's table: after vB=country, probabilities are 0.5, 0.35, 0.15.
	e := newEx8()
	kept := filter(e.patterns, Variable{Col: 1}, e.country)
	probs := Probabilities(kept)
	want := []float64{2.8 / 5.6, 2.0 / 5.6, 0.8 / 5.6}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-9 {
			t.Fatalf("renormalised prob[%d] = %f, want %f", i, probs[i], want[i])
		}
	}
}

func TestIdenticalPatternsTerminate(t *testing.T) {
	e := newEx8()
	same := []*pattern.Pattern{e.patterns[0].Clone(), e.patterns[0].Clone()}
	v := e.validator(crowd.Perfect(10))
	res := v.MUVF(same)
	if res.Pattern == nil {
		t.Fatal("must return a pattern")
	}
	// No uncertainty to resolve; only the final edge sweep runs.
	if res.VariablesValidated != 1 {
		t.Fatalf("identical patterns need only the edge sweep, used %d", res.VariablesValidated)
	}
}

func TestSinglePatternSweepsEdges(t *testing.T) {
	e := newEx8()
	v := e.validator(crowd.Perfect(10))
	res := v.MUVF(e.patterns[:1])
	// The single candidate's one edge is still verified before use.
	if res.VariablesValidated != 1 {
		t.Fatalf("expected 1 swept edge, got %d", res.VariablesValidated)
	}
	if res.Pattern.Key() != e.patterns[0].Key() {
		t.Fatal("wrong pattern returned")
	}
}

func TestSweepStripsRefutedUnanimousEdge(t *testing.T) {
	// All candidates agree on a wrong relationship: entropy never selects
	// the pair, but the final sweep must catch and strip it.
	e := newEx8()
	a := e.patterns[0].Clone() // hasCapital
	b := e.patterns[1].Clone() // economy type, same hasCapital edge
	v := e.validator(crowd.Perfect(10))
	v.Oracle = fixedOracle{
		types: map[int]rdf.ID{1: e.country, 2: e.capital},
		rels:  map[[2]int]rdf.ID{{1, 2}: e.kb.Res("somethingelse")},
	}
	res := v.MUVF([]*pattern.Pattern{a, b})
	if res.Pattern.EdgeBetween(1, 2) != nil {
		t.Fatal("refuted unanimous edge survived the sweep")
	}
}

func TestDifficultyFromOverlap(t *testing.T) {
	kb := rdf.New()
	// Two types sharing 80% of instances.
	for i := 0; i < 10; i++ {
		e := kb.Res(rdf.IRI("e").Value + string(rune('0'+i)))
		if i < 8 {
			kb.Add(e, kb.TypeID, kb.Res("T1"))
			kb.Add(e, kb.TypeID, kb.Res("T2"))
		} else if i < 9 {
			kb.Add(e, kb.TypeID, kb.Res("T1"))
		} else {
			kb.Add(e, kb.TypeID, kb.Res("T2"))
		}
	}
	v := &Validator{KB: kb, Crowd: crowd.Perfect(3), Rng: rand.New(rand.NewSource(1))}
	v.defaults()
	d := v.difficulty([]rdf.ID{kb.Res("T1"), kb.Res("T2")}, Variable{Col: 0})
	want := math.Pow(0.8, 5)
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("difficulty = %f, want %f", d, want)
	}
	if v.difficulty([]rdf.ID{kb.Res("T1")}, Variable{Col: 0}) != 0 {
		t.Fatal("single-candidate difficulty must be 0")
	}
}

func TestQuestionAccounting(t *testing.T) {
	e := newEx8()
	c := crowd.Perfect(10)
	v := e.validator(c)
	v.QuestionsPerVariable = 4
	res := v.MUVF(e.patterns)
	if res.QuestionsAsked != res.VariablesValidated*4 {
		t.Fatalf("QuestionsAsked = %d, vars = %d", res.QuestionsAsked, res.VariablesValidated)
	}
	if c.Stats().Questions != res.QuestionsAsked {
		t.Fatalf("crowd saw %d questions, result says %d", c.Stats().Questions, res.QuestionsAsked)
	}
}
