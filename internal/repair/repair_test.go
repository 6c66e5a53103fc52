package repair

import (
	"fmt"
	"slices"
	"testing"

	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/similarity"
)

// figure5KB builds the KB behind Figures 1/5: two full player instance
// graphs (Pirlo/Italy/Rome/Juve/Italian/Flero and a Spanish player with
// Madrid), matching Example 12/13's repair-cost arithmetic.
func figure5KB() (*rdf.Store, *pattern.Pattern) {
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }

	type ent struct{ iri, typ, label string }
	for _, e := range []ent{
		{"y:Pirlo", "person", "Pirlo"},
		{"y:Casillas", "person", "Casillas"},
		{"y:Italy", "country", "Italy"},
		{"y:Spain", "country", "Spain"},
		{"y:Rome", "capital", "Rome"},
		{"y:Madrid", "capital", "Madrid"},
		{"y:Juve", "club", "Juve"},
		{"y:RealMadrid", "club", "Real Madrid"},
		{"y:Italian", "language", "Italian"},
		{"y:Spanish", "language", "Spanish"},
		{"y:Flero", "city", "Flero"},
		{"y:Mostoles", "city", "Mostoles"},
	} {
		add(e.iri, rdf.IRIType, e.typ)
		lit(e.iri, rdf.IRILabel, e.label)
	}
	// Instance graph G1 (Pirlo).
	add("y:Pirlo", "nationality", "y:Italy")
	add("y:Italy", "hasCapital", "y:Rome")
	add("y:Pirlo", "playsFor", "y:Juve")
	add("y:Pirlo", "speaks", "y:Italian")
	add("y:Pirlo", "bornIn", "y:Flero")
	// Instance graph G2 (Casillas).
	add("y:Casillas", "nationality", "y:Spain")
	add("y:Spain", "hasCapital", "y:Madrid")
	add("y:Casillas", "playsFor", "y:RealMadrid")
	add("y:Casillas", "speaks", "y:Spanish")
	add("y:Casillas", "bornIn", "y:Mostoles")

	p := &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: kb.Res("person")},
			{Column: 1, Type: kb.Res("country")},
			{Column: 2, Type: kb.Res("capital")},
			{Column: 3, Type: kb.Res("club")},
			{Column: 4, Type: kb.Res("language")},
			{Column: 5, Type: kb.Res("city")},
		},
		Edges: []pattern.Edge{
			{From: 0, To: 1, Prop: kb.Res("nationality")},
			{From: 1, To: 2, Prop: kb.Res("hasCapital")},
			{From: 0, To: 3, Prop: kb.Res("playsFor")},
			{From: 0, To: 4, Prop: kb.Res("speaks")},
			{From: 0, To: 5, Prop: kb.Res("bornIn")},
		},
	}
	return kb, p
}

func TestEnumerateInstanceGraphs(t *testing.T) {
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{})
	if ix.NumGraphs() != 2 {
		t.Fatalf("found %d instance graphs, want 2", ix.NumGraphs())
	}
	for _, g := range ix.Graphs {
		if len(g.Resource) != 6 {
			t.Fatalf("graph %d has %d nodes, want 6", g.ID, len(g.Resource))
		}
	}
}

func TestExample13TopRepair(t *testing.T) {
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{})
	// t3 = (Pirlo, Italy, Madrid, Juve, Italian, Flero): 5 cells agree with
	// G1, 1 with G2 — cost 1 vs 5 (Example 12/13).
	t3 := []string{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"}
	reps := ix.TopK(t3, 2)
	if len(reps) != 2 {
		t.Fatalf("got %d repairs", len(reps))
	}
	if reps[0].Cost != 1 || reps[1].Cost != 5 {
		t.Fatalf("costs = %g, %g; want 1, 5", reps[0].Cost, reps[1].Cost)
	}
	if len(reps[0].Changes) != 1 {
		t.Fatalf("changes = %v", reps[0].Changes)
	}
	ch := reps[0].Changes[0]
	if ch.Col != 2 || ch.From != "Madrid" || ch.To != "Rome" {
		t.Fatalf("top repair change = %+v, want col2 Madrid→Rome", ch)
	}
}

// postingList returns the graph IDs, ascending, holding value v on column
// col (nil when none does), read from the index's value numbers.
func postingList(ix *Index, col int, v string) []int {
	j := slices.Index(ix.cols, col)
	if j < 0 {
		return nil
	}
	num, ok := ix.numbers[j][similarity.Normalize(v)]
	if !ok {
		return nil
	}
	return ix.posts[j][num]
}

func TestPostingLists(t *testing.T) {
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{})
	// Example 13's inverted lists: (B, Italy) → G1, (C, Madrid) → G2.
	italy := postingList(ix, 1, "Italy")
	if len(italy) != 1 {
		t.Fatalf("posting list (1, Italy) = %v", italy)
	}
	madrid := postingList(ix, 2, "Madrid")
	if len(madrid) != 1 || madrid[0] == italy[0] {
		t.Fatalf("posting list (2, Madrid) = %v", madrid)
	}
	if got := postingList(ix, 1, "Narnia"); got != nil {
		t.Fatalf("unexpected postings %v", got)
	}
	// Normalisation: values are numbered by their normalised form.
	if got := postingList(ix, 1, "  ITALY "); len(got) != 1 {
		t.Fatalf("normalised lookup failed: %v", got)
	}
}

func TestTopKAgreesWithNaive(t *testing.T) {
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{})
	tuples := [][]string{
		{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"},
		{"Casillas", "Spain", "Rome", "Real Madrid", "Spanish", "Mostoles"},
		{"Pirlo", "Spain", "Madrid", "Real Madrid", "Spanish", "Mostoles"},
	}
	for _, tup := range tuples {
		fast := ix.TopK(tup, 2)
		slow := ix.TopKNaive(tup, 2)
		if len(fast) != len(slow) {
			t.Fatalf("tuple %v: fast %d vs naive %d", tup, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Cost != slow[i].Cost || fast[i].Graph.ID != slow[i].Graph.ID {
				t.Fatalf("tuple %v rank %d: %v vs %v", tup, i, fast[i], slow[i])
			}
		}
	}
}

func TestTupleSharingNothingGetsNoRepairFromLists(t *testing.T) {
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{})
	reps := ix.TopK([]string{"X", "Y", "Z", "W", "V", "U"}, 3)
	if len(reps) != 0 {
		t.Fatalf("inverted lists returned %d repairs for a disjoint tuple", len(reps))
	}
}

func TestWeightedCosts(t *testing.T) {
	kb, p := figure5KB()
	// High confidence on column 1 makes changing it expensive; the Spanish
	// graph then costs 5+... while a column-2 change stays cheap.
	ix := BuildIndex(kb, p, Options{Weights: map[int]float64{2: 0.5}})
	t3 := []string{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"}
	reps := ix.TopK(t3, 1)
	if len(reps) != 1 || reps[0].Cost != 0.5 {
		t.Fatalf("weighted cost = %v", reps)
	}
}

func TestSubPropertyEdgeEnumeration(t *testing.T) {
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }
	add("hasCapital", rdf.IRISubPropertyOf, "locatedIn")
	add("y:Italy", rdf.IRIType, "country")
	lit("y:Italy", rdf.IRILabel, "Italy")
	add("y:Rome", rdf.IRIType, "capital")
	lit("y:Rome", rdf.IRILabel, "Rome")
	add("y:Italy", "hasCapital", "y:Rome")
	p := &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: kb.Res("country")},
			{Column: 1, Type: kb.Res("capital")},
		},
		// Pattern uses the super-property; the asserted fact is hasCapital.
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: kb.Res("locatedIn")}},
	}
	ix := BuildIndex(kb, p, Options{})
	if ix.NumGraphs() != 1 {
		t.Fatalf("sub-property instance graph missed: %d graphs", ix.NumGraphs())
	}
}

func TestUntypedLiteralColumn(t *testing.T) {
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }
	add("y:Rossi", rdf.IRIType, "person")
	lit("y:Rossi", rdf.IRILabel, "Rossi")
	lit("y:Rossi", "height", "1.78")
	p := &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: kb.Res("person")},
			{Column: 1, Type: rdf.NoID},
		},
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: kb.Res("height")}},
	}
	ix := BuildIndex(kb, p, Options{})
	if ix.NumGraphs() != 1 {
		t.Fatalf("literal-node graph missed: %d", ix.NumGraphs())
	}
	reps := ix.TopK([]string{"Rossi", "1.93"}, 1)
	if len(reps) != 1 || reps[0].Cost != 1 || reps[0].Changes[0].To != "1.78" {
		t.Fatalf("literal repair = %v", reps)
	}
}

func TestRepairStringer(t *testing.T) {
	r := Repair{Cost: 1, Changes: []Change{{Col: 2, From: "Madrid", To: "Rome"}}}
	if s := r.String(); s != `cost=1 col2:"Madrid"→"Rome"` {
		t.Fatalf("String() = %s", s)
	}
}

func TestLargerScaleEnumeration(t *testing.T) {
	// 100 countries × capitals: enumeration must produce exactly 100 graphs
	// and retrieval must stay exact.
	kb := rdf.New()
	p := &pattern.Pattern{}
	for i := 0; i < 100; i++ {
		c := fmt.Sprintf("country%03d", i)
		cap := fmt.Sprintf("capital%03d", i)
		kb.AddFact(rdf.IRI("c:"+c), rdf.IRI(rdf.IRIType), rdf.IRI("country"))
		kb.AddFact(rdf.IRI("c:"+c), rdf.IRI(rdf.IRILabel), rdf.Lit(c))
		kb.AddFact(rdf.IRI("k:"+cap), rdf.IRI(rdf.IRIType), rdf.IRI("capital"))
		kb.AddFact(rdf.IRI("k:"+cap), rdf.IRI(rdf.IRILabel), rdf.Lit(cap))
		kb.AddFact(rdf.IRI("c:"+c), rdf.IRI("hasCapital"), rdf.IRI("k:"+cap))
	}
	p.Nodes = []pattern.Node{
		{Column: 0, Type: kb.Res("country")},
		{Column: 1, Type: kb.Res("capital")},
	}
	p.Edges = []pattern.Edge{{From: 0, To: 1, Prop: kb.Res("hasCapital")}}
	ix := BuildIndex(kb, p, Options{})
	if ix.NumGraphs() != 100 {
		t.Fatalf("graphs = %d, want 100", ix.NumGraphs())
	}
	reps := ix.TopK([]string{"country042", "capital099"}, 3)
	if len(reps) < 2 || reps[0].Cost != 1 {
		t.Fatalf("repairs = %v", reps)
	}
	// Both single-change alignments (fix col0 or fix col1) must surface.
	if reps[1].Cost != 1 {
		t.Fatalf("second repair cost = %g, want 1", reps[1].Cost)
	}
}

func TestCountingCostMatchesAlignment(t *testing.T) {
	// The Example 13 counting evaluation must equal the per-graph alignment
	// cost, weighted or not.
	kb, p := figure5KB()
	for _, opts := range []Options{
		{},
		{Weights: map[int]float64{0: 3, 2: 0.5}},
	} {
		ix := BuildIndex(kb, p, opts)
		tuples := [][]string{
			{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"},
			{"Casillas", "Italy", "Rome", "Juve", "Spanish", "Mostoles"},
			{"Pirlo", "Spain", "Madrid", "Real Madrid", "Spanish", "Mostoles"},
		}
		for _, tup := range tuples {
			for _, rep := range ix.TopK(tup, 5) {
				recomputed, _ := ix.align(tup, rep.Graph)
				if rep.Cost != recomputed.Cost {
					t.Fatalf("opts %+v tuple %v: counting cost %g != alignment cost %g",
						opts, tup, rep.Cost, recomputed.Cost)
				}
			}
		}
	}
}

func TestTopKStillMatchesNaiveAfterCounting(t *testing.T) {
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{Weights: map[int]float64{1: 2}})
	tup := []string{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"}
	fast := ix.TopK(tup, 2)
	slow := ix.TopKNaive(tup, 2)
	for i := range fast {
		if fast[i].Cost != slow[i].Cost || fast[i].Graph.ID != slow[i].Graph.ID {
			t.Fatalf("rank %d: %v vs %v", i, fast[i], slow[i])
		}
	}
}
