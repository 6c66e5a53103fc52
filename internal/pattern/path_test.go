package pattern

import (
	"testing"

	"katara/internal/rdf"
	"katara/internal/similarity"
)

// pathKB builds the §9 example: persons born in cities that are located in
// countries — no direct person→country property exists.
func pathKB() *rdf.Store {
	kb := rdf.New()
	add := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	lit := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.Lit(o)) }
	for _, e := range []struct{ iri, typ, label string }{
		{"y:Pirlo", "person", "Pirlo"},
		{"y:Xavi", "person", "Xavi"},
		{"y:Flero", "city", "Flero"},
		{"y:Terrassa", "city", "Terrassa"},
		{"y:Italy", "country", "Italy"},
		{"y:Spain", "country", "Spain"},
	} {
		add(e.iri, rdf.IRIType, e.typ)
		lit(e.iri, rdf.IRILabel, e.label)
	}
	add("y:Pirlo", "wasBornIn", "y:Flero")
	add("y:Xavi", "wasBornIn", "y:Terrassa")
	add("y:Flero", "isLocatedIn", "y:Italy")
	add("y:Terrassa", "isLocatedIn", "y:Spain")
	return kb
}

func TestHasPath(t *testing.T) {
	kb := pathKB()
	pirlo := kb.Res("y:Pirlo")
	italy := kb.Res("y:Italy")
	spain := kb.Res("y:Spain")
	chain := []rdf.ID{kb.Res("wasBornIn"), kb.Res("isLocatedIn")}
	if !HasPath(kb, pirlo, chain, italy) {
		t.Fatal("Pirlo -bornIn∘locatedIn-> Italy should hold")
	}
	if HasPath(kb, pirlo, chain, spain) {
		t.Fatal("Pirlo does not reach Spain")
	}
	// Single-hop path degenerates to the plain edge check.
	if !HasPath(kb, pirlo, chain[:1], kb.Res("y:Flero")) {
		t.Fatal("single-hop path failed")
	}
	if HasPath(kb, pirlo, []rdf.ID{kb.Res("nosuch")}, italy) {
		t.Fatal("unknown property matched")
	}
}

func TestHasPathSubProperties(t *testing.T) {
	kb := pathKB()
	kb.AddFact(rdf.IRI("isLocatedIn"), rdf.IRI(rdf.IRISubPropertyOf), rdf.IRI("spatiallyRelated"))
	pirlo := kb.Res("y:Pirlo")
	italy := kb.Res("y:Italy")
	chain := []rdf.ID{kb.Res("wasBornIn"), kb.Res("spatiallyRelated")}
	if !HasPath(kb, pirlo, chain, italy) {
		t.Fatal("path via super-property should hold (condition 3 per hop)")
	}
}

func pathPattern(kb *rdf.Store) *Pattern {
	return &Pattern{
		Nodes: []Node{
			{Column: 0, Type: kb.Res("person")},
			{Column: 1, Type: kb.Res("country")},
		},
		Paths: []PathEdge{{
			From: 0, To: 1,
			Props: []rdf.ID{kb.Res("wasBornIn"), kb.Res("isLocatedIn")},
		}},
	}
}

func TestEvaluateWithPathEdge(t *testing.T) {
	kb := pathKB()
	p := pathPattern(kb)
	m := Evaluate(p, kb, []string{"Pirlo", "Italy"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatalf("path-edge pattern should fully match: %+v", m)
	}
	if len(m.PathOK) != 1 || !m.PathOK[0] {
		t.Fatalf("PathOK = %v", m.PathOK)
	}
	// Wrong country: path condition fails, nodes still hold.
	m2 := Evaluate(p, kb, []string{"Pirlo", "Spain"}, similarity.DefaultThreshold)
	if m2.Full {
		t.Fatal("wrong country must not fully match")
	}
	if m2.PathOK[0] {
		t.Fatal("path should not hold for Pirlo→Spain")
	}
	if !m2.NodeOK[0] || !m2.NodeOK[1] {
		t.Fatalf("nodes hold, so the match is partial: %v", m2.NodeOK)
	}
}

func TestPathsInStructureHelpers(t *testing.T) {
	kb := pathKB()
	p := pathPattern(kb)
	cols := p.Columns()
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	if p.PathEdgeBetween(0, 1) == nil || p.PathEdgeBetween(1, 0) != nil {
		t.Fatal("PathEdgeBetween broken")
	}
	cp := p.Clone()
	cp.Paths[0].Props[0] = kb.Res("other")
	if p.Paths[0].Props[0] == kb.Res("other") {
		t.Fatal("Clone shares path storage")
	}
	if p.Key() == cp.Key() {
		t.Fatal("Key must reflect path contents")
	}
	s := p.Render(kb, []string{"A", "B"})
	if !contains(s, "wasBornIn∘isLocatedIn") {
		t.Fatalf("Render = %s", s)
	}
}

func TestDiscoverPaths(t *testing.T) {
	kb := pathKB()
	// A two-row table (person, country) with no direct relationship.
	a := []string{"Pirlo", "Xavi"}
	b := []string{"Italy", "Spain"}
	found := DiscoverPaths(kb, a, b, similarity.DefaultThreshold, 0.5)
	if len(found) == 0 {
		t.Fatal("two-hop path not discovered")
	}
	best := found[0]
	if best.Support != 2 {
		t.Fatalf("support = %d, want 2", best.Support)
	}
	if best.Props[0] != kb.Res("wasBornIn") || best.Props[1] != kb.Res("isLocatedIn") {
		t.Fatalf("chain = %v", best.Props)
	}
}

func TestDiscoverPathsNoise(t *testing.T) {
	kb := pathKB()
	// Mismatched pairs: no chain reaches min support.
	a := []string{"Pirlo", "Xavi"}
	b := []string{"Spain", "Italy"}
	if found := DiscoverPaths(kb, a, b, similarity.DefaultThreshold, 0.5); len(found) != 0 {
		t.Fatalf("unexpected chains %v", found)
	}
	if got := DiscoverPaths(kb, a, b[:1], 0.7, 0.5); got != nil {
		t.Fatal("mismatched lengths must return nil")
	}
}

func TestNormalizeEqHelper(t *testing.T) {
	if !normalizeEq("S. Africa", "s africa") || normalizeEq("a", "b") {
		t.Fatal("normalizeEq broken")
	}
}

func TestDOTExport(t *testing.T) {
	kb := pathKB()
	p := pathPattern(kb)
	p.Edges = append(p.Edges, Edge{From: 0, To: 1, Prop: kb.Res("knowsAbout")})
	dot := p.DOT(kb, []string{"A", "B"})
	for _, want := range []string{
		"digraph pattern", `n0 [label="A (person)"]`, `n1 [label="B (country)"]`,
		"style=dashed", "wasBornIn∘isLocatedIn",
	} {
		if !contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
