package katara

import (
	"strings"
	"testing"

	"katara/internal/rdf"
	"katara/internal/workload"
	"katara/internal/world"
)

// figure1 builds the paper's running example: the soccer table of Fig. 1
// and the Yago fragment of Fig. 2.
func figure1() (*KB, *Table) {
	kb := NewKB()
	add := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	lit := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.Lit(o)) }
	ents := []struct{ iri, typ, label string }{
		{"y:Rossi", "person", "Rossi"},
		{"y:Klate", "person", "Klate"},
		{"y:Pirlo", "person", "Pirlo"},
		{"y:Italy", "country", "Italy"},
		{"y:SAfrica", "country", "S. Africa"},
		{"y:Spain", "country", "Spain"},
		{"y:Rome", "capital", "Rome"},
		{"y:Pretoria", "capital", "Pretoria"},
		{"y:Madrid", "capital", "Madrid"},
	}
	for _, e := range ents {
		add(e.iri, rdf.IRIType, e.typ)
		lit(e.iri, rdf.IRILabel, e.label)
	}
	for _, c := range []string{"person", "country", "capital"} {
		lit(c, rdf.IRILabel, c)
	}
	add("y:Italy", "hasCapital", "y:Rome")
	add("y:Spain", "hasCapital", "y:Madrid")
	add("y:Rossi", "nationality", "y:Italy")
	add("y:Klate", "nationality", "y:SAfrica")
	add("y:Pirlo", "nationality", "y:Italy")
	lit("hasCapital", rdf.IRILabel, "hasCapital")
	lit("nationality", rdf.IRILabel, "nationality")

	t := NewTable("soccer", "A", "B", "C")
	t.Append("Rossi", "Italy", "Rome")
	t.Append("Klate", "S. Africa", "Pretoria")
	t.Append("Pirlo", "Italy", "Madrid")
	return kb, t
}

// fig1Oracle knows the real world of the running example.
type fig1Oracle struct{ kb *KB }

func (o fig1Oracle) TypeHolds(value string, typ rdf.ID) bool { return true }
func (o fig1Oracle) RelHolds(subj string, prop rdf.ID, obj string) bool {
	if o.kb.LabelOf(prop) == "hasCapital" {
		switch subj {
		case "S. Africa":
			return obj == "Pretoria"
		case "Italy":
			return obj == "Rome"
		case "Spain":
			return obj == "Madrid"
		}
		return false
	}
	return true
}

func TestCleanRunningExample(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb}})
	report, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2: t1 KB-validated, t2 crowd-validated, t3 erroneous.
	if report.Annotations[0].Label != ValidatedByKB {
		t.Fatalf("t1 = %v", report.Annotations[0].Label)
	}
	if report.Annotations[1].Label != ValidatedByCrowd {
		t.Fatalf("t2 = %v", report.Annotations[1].Label)
	}
	if report.Annotations[2].Label != Erroneous {
		t.Fatalf("t3 = %v", report.Annotations[2].Label)
	}
	// KB enrichment: S. Africa hasCapital Pretoria.
	if len(report.NewFacts) != 1 || report.NewFacts[0].Object != "Pretoria" {
		t.Fatalf("NewFacts = %v", report.NewFacts)
	}
	// Top repair for t3 fixes Madrid → Rome (Example 12/13).
	reps := report.Repairs[2]
	if len(reps) == 0 {
		t.Fatal("no repairs for t3")
	}
	found := false
	for _, ch := range reps[0].Changes {
		if ch.From == "Madrid" && ch.To == "Rome" {
			found = true
		}
	}
	if !found {
		t.Fatalf("top repair = %v", reps[0])
	}
	if report.QuestionsAsked == 0 {
		t.Fatal("crowd should have been consulted")
	}
}

func TestCleanErrors(t *testing.T) {
	kb, _ := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{})
	if _, err := c.Clean(nil); err == nil {
		t.Fatal("nil table must error")
	}
	empty := NewTable("e", "A")
	if _, err := c.Clean(empty); err == nil {
		t.Fatal("empty table must error")
	}
	unknown := NewTable("u", "A")
	unknown.Append("zzz-unknown-value")
	if _, err := c.Clean(unknown); err != ErrNoPattern {
		t.Fatalf("expected ErrNoPattern, got %v", err)
	}
}

func TestTrustingPolicy(t *testing.T) {
	// With no FactOracle, missing facts are treated as KB incompleteness:
	// nothing is erroneous, everything missing becomes a new fact.
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{})
	report, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range report.Annotations {
		if a.Label == Erroneous {
			t.Fatalf("tuple %d marked erroneous under trusting policy", i)
		}
	}
	if len(report.NewFacts) == 0 {
		t.Fatal("trusting policy should enrich the KB")
	}
}

func TestDiscoverPatternsShape(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{TopK: 5})
	ps := c.DiscoverPatterns(tbl)
	if len(ps) == 0 {
		t.Fatal("no patterns")
	}
	best := ps[0]
	if got := kb.LabelOf(best.TypeOf(1)); got != "country" {
		t.Fatalf("column B typed %q", got)
	}
	e := best.EdgeBetween(1, 2)
	if e == nil || kb.LabelOf(e.Prop) != "hasCapital" {
		t.Fatal("missing hasCapital edge")
	}
	s := best.Render(kb, tbl.Columns)
	if !strings.Contains(s, "hasCapital") {
		t.Fatalf("render = %s", s)
	}
}

// TestReusedCleanerScoresItsEnrichedKB: discovery on a Cleaner whose Clean
// enriched its KB (the S. Africa capital fact) scores against the KB it
// reads, exactly as a new Cleaner on that KB does.
func TestReusedCleanerScoresItsEnrichedKB(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb}, TopK: 5})
	triples := kb.NumTriples()
	if _, err := c.Clean(tbl); err != nil {
		t.Fatal(err)
	}
	if kb.NumTriples() == triples {
		t.Fatal("the Clean enriched nothing; the check needs a KB write")
	}
	got := c.DiscoverPatterns(tbl)
	want := NewCleaner(kb, TrustingCrowd(), Options{TopK: 5}).DiscoverPatterns(tbl)
	if len(got) != len(want) {
		t.Fatalf("%d patterns after the Clean, a new Cleaner finds %d", len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].Render(kb, tbl.Columns), want[i].Render(kb, tbl.Columns); g != w || got[i].Score != want[i].Score {
			t.Errorf("pattern %d: %s scored %v after the Clean, a new Cleaner has %s scored %v", i, g, got[i].Score, w, want[i].Score)
		}
	}
}

func TestValidatePatternWithoutOracleTrustsTop(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{})
	ps := c.DiscoverPatterns(tbl)
	p, questions := c.ValidatePattern(tbl, ps)
	if p != ps[0] || questions != 0 {
		t.Fatal("oracle-less validation must return the top pattern free of charge")
	}
}

func TestBestKB(t *testing.T) {
	w := world.New(3, world.Config{Persons: 60, Players: 30, Clubs: 8, Universities: 20, Films: 10, Books: 10})
	yago := workload.YagoLike(w, 1)
	dbp := workload.DBpediaLike(w, 2)
	spec := workload.SoccerTable(w, 5, 40)
	// Soccer relations exist only in DBpedia: it must win.
	idx, score := BestKB(spec.Table, []*KB{yago.Store, dbp.Store}, Options{})
	if idx != 1 {
		t.Fatalf("BestKB picked %d (score %f), want DBpedia", idx, score)
	}
	// No KB covers a nonsense table.
	junk := NewTable("j", "A")
	junk.Append("qqqqq-zz")
	if idx, _ := BestKB(junk, []*KB{yago.Store}, Options{}); idx != -1 {
		t.Fatal("BestKB should return -1 for uncoverable tables")
	}
}

func TestRepairsRespectNoEdgePatterns(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{})
	p := &Pattern{} // no edges
	if got := c.Repairs(tbl, p, []int{0}); got != nil {
		t.Fatal("edge-less pattern must yield no repairs")
	}
}
