package metrics

import (
	"math"
	"testing"

	"katara/internal/pattern"
	"katara/internal/rdf"
)

func hierKB() *rdf.Store {
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	add("IndianFilm", rdf.IRISubClassOf, "Film")
	add("Film", rdf.IRISubClassOf, "Work")
	add("hasDirector", rdf.IRISubPropertyOf, "relatedTo")
	return kb
}

func TestTypeScorePartialCredit(t *testing.T) {
	kb := hierKB()
	indian := kb.Res("IndianFilm")
	film := kb.Res("Film")
	work := kb.Res("Work")
	// The paper's example: predicting Film when truth is IndianFilm scores
	// 1/(1+1) = 0.5.
	if got := typeScore(kb, film, indian); got != 0.5 {
		t.Fatalf("typeScore(Film|IndianFilm) = %f, want 0.5", got)
	}
	if got := typeScore(kb, work, indian); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("typeScore(Work|IndianFilm) = %f, want 1/3", got)
	}
	if got := typeScore(kb, indian, indian); got != 1 {
		t.Fatalf("exact match = %f", got)
	}
	// Predicting a subtype of the truth gets no credit.
	if got := typeScore(kb, indian, film); got != 0 {
		t.Fatalf("subtype prediction = %f, want 0", got)
	}
	if got := typeScore(kb, rdf.NoID, indian); got != 0 {
		t.Fatalf("missing prediction = %f, want 0", got)
	}
}

func TestRelScore(t *testing.T) {
	kb := hierKB()
	hd := kb.Res("hasDirector")
	rt := kb.Res("relatedTo")
	if got := relScore(kb, rt, hd); got != 0.5 {
		t.Fatalf("super-property credit = %f, want 0.5", got)
	}
	if got := relScore(kb, hd, hd); got != 1 {
		t.Fatalf("exact = %f", got)
	}
}

func TestPatternPR(t *testing.T) {
	kb := hierKB()
	film := kb.Res("Film")
	indian := kb.Res("IndianFilm")
	person := kb.Res("person")
	acted := kb.Res("actedIn")

	truth := &pattern.Pattern{
		Nodes: []pattern.Node{{Column: 0, Type: person}, {Column: 1, Type: indian}},
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: acted}},
	}
	pred := &pattern.Pattern{
		Nodes: []pattern.Node{{Column: 0, Type: person}, {Column: 1, Type: film}},
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: acted}},
	}
	pr := PatternPR(kb, pred, truth)
	// Credits: person 1 + film 0.5 + actedIn 1 = 2.5 over 3 predicted and 3
	// true elements.
	want := 2.5 / 3
	if math.Abs(pr.Precision-want) > 1e-9 || math.Abs(pr.Recall-want) > 1e-9 {
		t.Fatalf("PR = %+v, want %f", pr, want)
	}
	f := pr.F()
	if math.Abs(f-want) > 1e-9 {
		t.Fatalf("F = %f", f)
	}
}

func TestPatternPRAsymmetric(t *testing.T) {
	kb := hierKB()
	person := kb.Res("person")
	film := kb.Res("Film")
	acted := kb.Res("actedIn")
	truth := &pattern.Pattern{
		Nodes: []pattern.Node{{Column: 0, Type: person}, {Column: 1, Type: film}},
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: acted}},
	}
	// Prediction covers only column 0: precision perfect, recall 1/3.
	pred := &pattern.Pattern{Nodes: []pattern.Node{{Column: 0, Type: person}}}
	pr := PatternPR(kb, pred, truth)
	if pr.Precision != 1 {
		t.Fatalf("precision = %f, want 1", pr.Precision)
	}
	if math.Abs(pr.Recall-1.0/3) > 1e-9 {
		t.Fatalf("recall = %f, want 1/3", pr.Recall)
	}
	// Prediction with an extra wrong edge: precision drops, recall same.
	pred2 := &pattern.Pattern{
		Nodes: []pattern.Node{{Column: 0, Type: person}},
		Edges: []pattern.Edge{{From: 1, To: 0, Prop: acted}},
	}
	pr2 := PatternPR(kb, pred2, truth)
	if pr2.Precision >= pr.Precision {
		t.Fatal("wrong extra edge must lower precision")
	}
}

func TestPatternPRNilAndUntyped(t *testing.T) {
	kb := hierKB()
	truth := &pattern.Pattern{Nodes: []pattern.Node{{Column: 0, Type: kb.Res("Film")}}}
	if pr := PatternPR(kb, nil, truth); pr.Precision != 0 || pr.Recall != 0 {
		t.Fatal("nil prediction must score 0")
	}
	// Untyped nodes don't count in either direction.
	pred := &pattern.Pattern{Nodes: []pattern.Node{{Column: 5, Type: rdf.NoID}}}
	if pr := PatternPR(kb, pred, truth); pr.Precision != 0 || pr.Recall != 0 {
		t.Fatalf("untyped-only pattern = %+v", pr)
	}
}

func TestRepairCounts(t *testing.T) {
	c := RepairCounts{Changes: 10, CorrectChanges: 8, Errors: 20}
	pr := c.PR()
	if pr.Precision != 0.8 || pr.Recall != 0.4 {
		t.Fatalf("PR = %+v", pr)
	}
	if math.Abs(pr.F()-2*0.8*0.4/1.2) > 1e-9 {
		t.Fatalf("F = %f", pr.F())
	}
	var zero RepairCounts
	if pr := zero.PR(); pr.Precision != 0 || pr.Recall != 0 || pr.F() != 0 {
		t.Fatal("zero counts must all be 0")
	}
}
