package pattern

import (
	"math/rand"
	"sort"
	"testing"

	"katara/internal/rdf"
	"katara/internal/similarity"
)

// kbFixture builds the Fig. 2 KB fragment: person/country/capital types,
// nationality and hasCapital relationships. Italy→Rome and Spain→Madrid have
// capitals; S. Africa's capital fact is missing (KB incompleteness).
func kbFixture() *rdf.Store {
	s := rdf.New()
	add := func(sub, pred, obj string) { s.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { s.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }

	add("y:capital", rdf.IRISubClassOf, "y:city")
	add("y:hasCapital", rdf.IRISubPropertyOf, "y:locatedIn")

	for _, e := range []struct{ iri, typ, label string }{
		{"y:Rossi", "y:person", "Rossi"},
		{"y:Pirlo", "y:person", "Pirlo"},
		{"y:Klate", "y:person", "Klate"},
		{"y:Italy", "y:country", "Italy"},
		{"y:Spain", "y:country", "Spain"},
		{"y:SAfrica", "y:country", "S. Africa"},
		{"y:Rome", "y:capital", "Rome"},
		{"y:Madrid", "y:capital", "Madrid"},
		{"y:Pretoria", "y:capital", "Pretoria"},
	} {
		add(e.iri, rdf.IRIType, e.typ)
		lit(e.iri, rdf.IRILabel, e.label)
	}
	add("y:Italy", "y:hasCapital", "y:Rome")
	add("y:Spain", "y:hasCapital", "y:Madrid")
	add("y:Rossi", "y:nationality", "y:Italy")
	add("y:Pirlo", "y:nationality", "y:Italy")
	add("y:Klate", "y:nationality", "y:SAfrica")
	lit("y:Rossi", "y:height", "1.78")
	return s
}

// figure2Pattern is φ_s from Fig. 2(a) over columns A(person), B(country),
// C(capital) with A-nationality->B and B-hasCapital->C.
func figure2Pattern(kb *rdf.Store) *Pattern {
	res := func(iri string) rdf.ID { return kb.Res(iri) }
	return &Pattern{
		Nodes: []Node{
			{Column: 0, Type: res("y:person")},
			{Column: 1, Type: res("y:country")},
			{Column: 2, Type: res("y:capital")},
		},
		Edges: []Edge{
			{From: 0, To: 1, Prop: res("y:nationality")},
			{From: 1, To: 2, Prop: res("y:hasCapital")},
		},
	}
}

func TestFullMatch(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	// t1 = (Rossi, Italy, Rome): full match, Fig. 2(b).
	m := Evaluate(p, kb, []string{"Rossi", "Italy", "Rome"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatalf("t1 should fully match: %+v", m)
	}
	if m.Partial() {
		t.Fatal("full match must not report partial")
	}
	if len(m.Assignment) != 3 {
		t.Fatalf("assignment = %v", m.Assignment)
	}
}

func TestPartialMatchMissingEdge(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	// t2 = (Klate, S. Africa, Pretoria): node conditions hold, the
	// hasCapital edge is missing from the KB — Fig. 2(c).
	m := Evaluate(p, kb, []string{"Klate", "S. Africa", "Pretoria"}, similarity.DefaultThreshold)
	if m.Full {
		t.Fatal("t2 must not fully match")
	}
	if !m.Partial() {
		t.Fatal("t2 should partially match")
	}
	if !m.NodeOK[0] || !m.NodeOK[1] || !m.NodeOK[2] {
		t.Fatalf("nodes should all validate: %v", m.NodeOK)
	}
	if !m.EdgeOK[0] {
		t.Fatal("nationality edge should hold")
	}
	if m.EdgeOK[1] {
		t.Fatal("hasCapital edge should be missing")
	}
}

func TestErroneousTuple(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	// t3 = (Pirlo, Italy, Madrid): Italy→Madrid does not hold — Fig. 2(d).
	m := Evaluate(p, kb, []string{"Pirlo", "Italy", "Madrid"}, similarity.DefaultThreshold)
	if m.Full {
		t.Fatal("t3 must not fully match")
	}
	if m.EdgeOK[1] {
		t.Fatal("Italy hasCapital Madrid should not hold")
	}
}

func TestFuzzyValueMatch(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	// Slight misspelling still resolves via the 0.7 threshold.
	m := Evaluate(p, kb, []string{"Rossi", "Itally", "Rome"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatalf("fuzzy match failed: %+v", m)
	}
}

func TestTypeSubsumptionInMatch(t *testing.T) {
	kb := kbFixture()
	city := kb.Res("y:city")
	p := &Pattern{Nodes: []Node{{Column: 0, Type: city}}}
	// Rome has asserted type capital ⊑ city: condition 2's subclassOf case.
	m := Evaluate(p, kb, []string{"Rome"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatal("capital instance should satisfy city node")
	}
}

func TestSubPropertyInEdge(t *testing.T) {
	kb := kbFixture()
	p := &Pattern{
		Nodes: []Node{
			{Column: 0, Type: kb.Res("y:country")},
			{Column: 1, Type: kb.Res("y:capital")},
		},
		Edges: []Edge{{From: 0, To: 1, Prop: kb.Res("y:locatedIn")}},
	}
	// hasCapital ⊑ locatedIn satisfies condition 3's subpropertyOf case.
	m := Evaluate(p, kb, []string{"Italy", "Rome"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatal("sub-property edge should satisfy pattern")
	}
}

func TestUntypedLiteralNode(t *testing.T) {
	kb := kbFixture()
	p := &Pattern{
		Nodes: []Node{
			{Column: 0, Type: kb.Res("y:person")},
			{Column: 1, Type: rdf.NoID},
		},
		Edges: []Edge{{From: 0, To: 1, Prop: kb.Res("y:height")}},
	}
	m := Evaluate(p, kb, []string{"Rossi", "1.78"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatalf("literal edge should match: %+v", m)
	}
	m = Evaluate(p, kb, []string{"Rossi", "9.99"}, similarity.DefaultThreshold)
	if m.Full {
		t.Fatal("wrong literal must not match")
	}
}

func TestConsistentAssignmentRequired(t *testing.T) {
	// Ambiguity test: two resources share the label "Rossi" (a soccer player
	// and a motorcycle racer, §3.1); only one has the nationality edge. The
	// matcher must find the consistent assignment.
	kb := kbFixture()
	kb.AddFact(rdf.IRI("y:RossiRacer"), rdf.IRI(rdf.IRIType), rdf.IRI("y:person"))
	kb.AddFact(rdf.IRI("y:RossiRacer"), rdf.IRI(rdf.IRILabel), rdf.Lit("Rossi"))
	p := figure2Pattern(kb)
	m := Evaluate(p, kb, []string{"Rossi", "Italy", "Rome"}, similarity.DefaultThreshold)
	if !m.Full {
		t.Fatal("ambiguous label should still match via the consistent resource")
	}
	soccer := kb.LookupTerm(rdf.IRI("y:Rossi"))
	if m.Assignment[0] != soccer {
		t.Fatalf("assignment picked %v, want the soccer player", m.Assignment[0])
	}
}

func TestColumnsAndAccessors(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	cols := p.Columns()
	if len(cols) != 3 || cols[0] != 0 || cols[2] != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	if p.TypeOf(1) != kb.Res("y:country") {
		t.Fatal("TypeOf broken")
	}
	if p.TypeOf(9) != rdf.NoID {
		t.Fatal("TypeOf of uncovered column should be NoID")
	}
	if p.EdgeBetween(1, 2) == nil || p.EdgeBetween(2, 1) != nil {
		t.Fatal("EdgeBetween direction broken")
	}
}

// TestColumnsMatchesSetReference checks Columns against a map-based set of
// every column a node, edge or path touches, on random patterns.
func TestColumnsMatchesSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		p := &Pattern{}
		want := map[int]bool{}
		col := func() int {
			c := rng.Intn(8)
			want[c] = true
			return c
		}
		for i := rng.Intn(4); i > 0; i-- {
			p.Nodes = append(p.Nodes, Node{Column: col()})
		}
		for i := rng.Intn(4); i > 0; i-- {
			p.Edges = append(p.Edges, Edge{From: col(), To: col()})
		}
		for i := rng.Intn(3); i > 0; i-- {
			p.Paths = append(p.Paths, PathEdge{From: col(), To: col()})
		}
		got := p.Columns()
		if len(got) != len(want) || !sort.IntsAreSorted(got) {
			t.Fatalf("trial %d: Columns = %v, want the sorted set %v", trial, got, want)
		}
		for i, c := range got {
			if !want[c] || (i > 0 && got[i-1] == c) {
				t.Fatalf("trial %d: Columns = %v, want the sorted set %v", trial, got, want)
			}
		}
	}
}

func TestConnectedAndComponents(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	if !p.Connected() {
		t.Fatal("figure-2 pattern is connected")
	}
	// Add an isolated node: now two components.
	p2 := p.Clone()
	p2.Nodes = append(p2.Nodes, Node{Column: 5, Type: kb.Res("y:city")})
	if p2.Connected() {
		t.Fatal("pattern with isolated node is not connected")
	}
	comps := p2.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += len(c.Nodes)
	}
	if total != len(p2.Nodes) {
		t.Fatal("components lost nodes")
	}
}

func TestKeyCanonical(t *testing.T) {
	kb := kbFixture()
	a := figure2Pattern(kb)
	b := figure2Pattern(kb)
	// Same content, different order.
	b.Nodes[0], b.Nodes[2] = b.Nodes[2], b.Nodes[0]
	b.Edges[0], b.Edges[1] = b.Edges[1], b.Edges[0]
	if a.Key() != b.Key() {
		t.Fatal("Key must be order-insensitive")
	}
	c := figure2Pattern(kb)
	c.Nodes[2].Type = kb.Res("y:city")
	if a.Key() == c.Key() {
		t.Fatal("different patterns must have different keys")
	}
}

func TestRender(t *testing.T) {
	kb := kbFixture()
	p := figure2Pattern(kb)
	s := p.Render(kb, []string{"A", "B", "C"})
	for _, want := range []string{"A(person)", "B(country)", "C(capital)", "hasCapital"} {
		if !contains(s, want) {
			t.Errorf("Render missing %q in %q", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
