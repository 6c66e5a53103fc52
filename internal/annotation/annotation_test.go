package annotation

import (
	"reflect"
	"testing"

	"katara/internal/crowd"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// The Fig. 1 / Fig. 2 scenario: t1 fully covered, t2 missing the
// S. Africa→Pretoria capital fact (true in the world), t3 asserting
// Italy→Madrid (false in the world).
type fixture struct {
	kb      *rdf.Store
	pat     *pattern.Pattern
	tbl     *table.Table
	country rdf.ID
	capital rdf.ID
	person  rdf.ID
	hasCap  rdf.ID
	nat     rdf.ID
}

func newFixture() *fixture {
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }
	for _, e := range []struct{ iri, typ, label string }{
		{"y:Rossi", "person", "Rossi"},
		{"y:Klate", "person", "Klate"},
		{"y:Pirlo", "person", "Pirlo"},
		{"y:Italy", "country", "Italy"},
		{"y:SAfrica", "country", "S. Africa"},
		{"y:Rome", "capital", "Rome"},
		{"y:Pretoria", "capital", "Pretoria"},
		{"y:Madrid", "capital", "Madrid"},
	} {
		add(e.iri, rdf.IRIType, e.typ)
		lit(e.iri, rdf.IRILabel, e.label)
	}
	add("y:Italy", "hasCapital", "y:Rome")
	add("y:Rossi", "nationality", "y:Italy")
	add("y:Klate", "nationality", "y:SAfrica")
	add("y:Pirlo", "nationality", "y:Italy")

	f := &fixture{
		kb:      kb,
		country: kb.Res("country"),
		capital: kb.Res("capital"),
		person:  kb.Res("person"),
		hasCap:  kb.Res("hasCapital"),
		nat:     kb.Res("nationality"),
	}
	f.pat = &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: f.person},
			{Column: 1, Type: f.country},
			{Column: 2, Type: f.capital},
		},
		Edges: []pattern.Edge{
			{From: 0, To: 1, Prop: f.nat},
			{From: 1, To: 2, Prop: f.hasCap},
		},
	}
	f.tbl = table.New("soccer", "A", "B", "C")
	f.tbl.Append("Rossi", "Italy", "Rome")
	f.tbl.Append("Klate", "S. Africa", "Pretoria")
	f.tbl.Append("Pirlo", "Italy", "Madrid")
	return f
}

// worldOracle knows the true world: S. Africa's capital is Pretoria; Italy's
// is Rome (not Madrid).
type worldOracle struct{ f *fixture }

func (o worldOracle) TypeHolds(value string, typ rdf.ID) bool { return true }
func (o worldOracle) RelHolds(subj string, prop rdf.ID, obj string) bool {
	if prop == o.f.hasCap {
		switch subj {
		case "S. Africa":
			return obj == "Pretoria"
		case "Italy":
			return obj == "Rome"
		}
		return false
	}
	return true
}

func newAnnotator(f *fixture, enrich bool) *Annotator {
	return &Annotator{
		KB:      f.kb,
		Pattern: f.pat,
		Crowd:   crowd.Perfect(5),
		Oracle:  worldOracle{f},
		Enrich:  enrich,
	}
}

func TestExample1Annotation(t *testing.T) {
	f := newFixture()
	res := newAnnotator(f, false).Annotate(f.tbl)
	if got := res.Tuples[0].Label; got != ValidatedByKB {
		t.Fatalf("t1 = %v, want validated-by-kb", got)
	}
	if got := res.Tuples[1].Label; got != ValidatedByCrowd {
		t.Fatalf("t2 = %v, want validated-by-kb-and-crowd", got)
	}
	if got := res.Tuples[2].Label; got != Erroneous {
		t.Fatalf("t3 = %v, want erroneous", got)
	}
	if rows := res.Errors(); len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("Errors() = %v", rows)
	}
}

func TestNewFactGeneration(t *testing.T) {
	f := newFixture()
	res := newAnnotator(f, false).Annotate(f.tbl)
	if len(res.NewFacts) != 1 {
		t.Fatalf("NewFacts = %v", res.NewFacts)
	}
	fact := res.NewFacts[0]
	if fact.IsType || fact.Subject != "S. Africa" || fact.Object != "Pretoria" || fact.Prop != f.hasCap {
		t.Fatalf("unexpected fact %+v", fact)
	}
}

func TestErroneousTupleFactsNotTrusted(t *testing.T) {
	f := newFixture()
	res := newAnnotator(f, false).Annotate(f.tbl)
	for _, fact := range res.NewFacts {
		if fact.Subject == "Italy" && fact.Object == "Madrid" {
			t.Fatal("fact from erroneous tuple leaked into enrichment")
		}
	}
	if res.Tuples[2].NewFacts != nil {
		t.Fatal("erroneous tuple retained facts")
	}
}

func TestEnrichmentFeedsBackIntoKB(t *testing.T) {
	f := newFixture()
	// Duplicate the Klate tuple: with enrichment on, the second occurrence
	// must be validated by the KB alone (the Table 5 redundancy effect).
	f.tbl.Append("Klate", "S. Africa", "Pretoria")
	ann := newAnnotator(f, true)
	res := ann.Annotate(f.tbl)
	if res.Tuples[1].Label != ValidatedByCrowd {
		t.Fatalf("first occurrence = %v", res.Tuples[1].Label)
	}
	if res.Tuples[3].Label != ValidatedByKB {
		t.Fatalf("second occurrence = %v, want validated-by-kb after enrichment", res.Tuples[3].Label)
	}
	// The fact is now queryable in the KB.
	sa := f.kb.MatchLabel("S. Africa", 0.7)[0].Resource
	pret := f.kb.MatchLabel("Pretoria", 0.7)[0].Resource
	if !f.kb.Has(sa, f.hasCap, pret) {
		t.Fatal("enriched fact missing from KB")
	}
}

func TestWithoutEnrichmentCrowdAskedAgain(t *testing.T) {
	f := newFixture()
	f.tbl.Append("Klate", "S. Africa", "Pretoria")
	ann := newAnnotator(f, false)
	res := ann.Annotate(f.tbl)
	if res.Tuples[3].Label != ValidatedByCrowd {
		t.Fatalf("without enrichment second occurrence = %v", res.Tuples[3].Label)
	}
	// Crowd was consulted for both occurrences.
	if got := ann.Crowd.Stats().Questions; got < 2 {
		t.Fatalf("crowd asked %d questions, want ≥ 2", got)
	}
}

func TestMissingTypeNodeGoesToCrowd(t *testing.T) {
	f := newFixture()
	// A tuple with a player unknown to the KB but real in the world.
	f.tbl = table.New("soccer", "A", "B", "C")
	f.tbl.Append("Mokoena", "S. Africa", "Pretoria")
	ann := newAnnotator(f, true)
	res := ann.Annotate(f.tbl)
	if res.Tuples[0].Label != ValidatedByCrowd {
		t.Fatalf("label = %v", res.Tuples[0].Label)
	}
	// Facts: Mokoena:person type fact plus nationality and capital edges.
	if len(res.Tuples[0].NewFacts) != 3 {
		t.Fatalf("NewFacts = %+v", res.Tuples[0].NewFacts)
	}
	// Minted resource must now exist with the right type.
	hits := f.kb.MatchLabel("Mokoena", 0.7)
	if len(hits) == 0 || !f.kb.HasType(hits[0].Resource, f.person) {
		t.Fatal("enrichment did not mint a typed resource")
	}
}

func TestBreakdownFractions(t *testing.T) {
	f := newFixture()
	res := newAnnotator(f, false).Annotate(f.tbl)
	b := res.Breakdown
	// 3 tuples × 3 typed nodes: all KB-validated (Madrid is a capital even
	// though it's the wrong capital for Italy).
	if b.TypeKB != 9 || b.TypeCrowd != 0 || b.TypeError != 0 {
		t.Fatalf("type breakdown = %+v", b)
	}
	// 3 tuples × 2 edges: t1 both KB; t2 nationality KB + capital crowd;
	// t3 nationality KB + capital error.
	if b.RelKB != 4 || b.RelCrowd != 1 || b.RelError != 1 {
		t.Fatalf("rel breakdown = %+v", b)
	}
	kbf, crf, erf := b.RelFractions()
	if kbf < 0.66 || kbf > 0.67 || crf < 0.16 || erf < 0.16 {
		t.Fatalf("fractions = %f %f %f", kbf, crf, erf)
	}
}

func TestFractionsEmptyBreakdown(t *testing.T) {
	var b Breakdown
	if kb, cr, er := b.TypeFractions(); kb != 0 || cr != 0 || er != 0 {
		t.Fatal("empty breakdown must be all zeros")
	}
}

func TestLabelString(t *testing.T) {
	if ValidatedByKB.String() != "validated-by-kb" ||
		ValidatedByCrowd.String() != "validated-by-kb-and-crowd" ||
		Erroneous.String() != "erroneous" {
		t.Fatal("Label.String broken")
	}
}

func TestNoisyCrowdCanMislabel(t *testing.T) {
	// With a very unreliable crowd some clean-but-uncovered tuples get
	// labelled erroneous; the pipeline must stay consistent (facts from
	// those tuples dropped).
	f := newFixture()
	ann := newAnnotator(f, false)
	ann.Crowd = crowd.New(10, 0.55, 3)
	res := ann.Annotate(f.tbl)
	for _, ta := range res.Tuples {
		if ta.Label == Erroneous && ta.NewFacts != nil {
			t.Fatal("erroneous tuple carries facts")
		}
	}
}

// bigFixture widens the Fig. 1 table so the worker pool actually engages
// (precomputeMatches requires NumRows >= 2*Workers). Row order interleaves
// KB-covered, crowd-confirmable and erroneous tuples, including duplicates
// whose outcome depends on enrichment from earlier rows.
func bigFixture() *fixture {
	f := newFixture()
	f.tbl.Append("Klate", "S. Africa", "Pretoria") // KB-covered after enrichment
	f.tbl.Append("Rossi", "Italy", "Rome")
	f.tbl.Append("Pirlo", "Italy", "Madrid") // erroneous again
	f.tbl.Append("Klate", "S. Africa", "Pretoria")
	f.tbl.Append("Rossi", "Italy", "Rome")
	f.tbl.Append("Pirlo", "Italy", "Rome")
	f.tbl.Append("Klate", "S. Africa", "Pretoria")
	return f
}

func TestParallelAnnotationMatchesSerial(t *testing.T) {
	for _, enrich := range []bool{false, true} {
		// Fresh fixtures per run: with Enrich on, the annotator mutates
		// its KB, so serial and parallel must each start pristine.
		sf := bigFixture()
		serial := newAnnotator(sf, enrich)
		serialRes := serial.Annotate(sf.tbl)
		serialQ := serial.Crowd.Stats().Questions

		for _, workers := range []int{2, 4, 8} {
			pf := bigFixture()
			par := newAnnotator(pf, enrich)
			par.Workers = workers
			par.Telemetry = telemetry.New()
			parRes := par.Annotate(pf.tbl)
			if !reflect.DeepEqual(serialRes, parRes) {
				t.Fatalf("enrich=%v workers=%d: parallel result differs from serial\nserial: %+v\nparallel: %+v",
					enrich, workers, serialRes.Tuples, parRes.Tuples)
			}
			if q := par.Crowd.Stats().Questions; q != serialQ {
				t.Fatalf("enrich=%v workers=%d: %d crowd questions, serial asked %d",
					enrich, workers, q, serialQ)
			}
			if got := par.Telemetry.Get(telemetry.TuplesAnnotated); got != int64(pf.tbl.NumRows()) {
				t.Fatalf("TuplesAnnotated = %d, want %d", got, pf.tbl.NumRows())
			}
			if par.Telemetry.Get(telemetry.KBLookups) == 0 {
				t.Fatal("parallel run recorded no KB lookups")
			}
		}
	}
}

func TestSmallTableSkipsWorkerPool(t *testing.T) {
	f := newFixture() // 3 rows < 2*Workers, so precompute must bail out
	ann := newAnnotator(f, false)
	ann.Workers = 4
	if m := ann.precomputeMatches(f.tbl); m != nil {
		t.Fatalf("precomputeMatches on a tiny table = %v, want nil", m)
	}
	res := ann.Annotate(f.tbl)
	if len(res.Tuples) != 3 {
		t.Fatalf("annotated %d tuples, want 3", len(res.Tuples))
	}
}
