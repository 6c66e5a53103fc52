package annotation

import (
	"reflect"
	"testing"

	"katara/internal/crowd"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
)

// nationalityOracle is the true world of the Zuma fixture: every value is
// an instance of every type, and Zuma is South African, not Italian.
type nationalityOracle struct{}

func (nationalityOracle) TypeHolds(string, rdf.ID) bool { return true }
func (nationalityOracle) RelHolds(subj string, _ rdf.ID, obj string) bool {
	return subj != "Zuma" || obj == "S. Africa"
}

// TestReplayAfterEnrichmentRedecides: a signature's cached verdict is
// replayed only while its Match is exact at the current KB state. The KB
// knows Zuma and his nationality but not that he is a person. Signature G
// (Zuma, Italy) is decided erroneous with the type check answered by the
// crowd. Signature H (Zuma, S. Africa) is then confirmed, and enrichment
// types Zuma as a person, which G's Match read. G's later rows must be
// re-decided (the type now comes from the KB) and the re-decided verdict
// replayed after that: the dedup run, with provenance on, equals the
// dedup-off run row for row.
func TestReplayAfterEnrichmentRedecides(t *testing.T) {
	g, h := [2]string{"Zuma", "Italy"}, [2]string{"Zuma", "S. Africa"}
	build := func() *fixture {
		f := personFixture(g, g, h, g, g)
		f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI(rdf.IRILabel), rdf.Lit("Zuma"))
		f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI("nationality"), rdf.IRI("y:SAfrica"))
		return f
	}
	run := func(dedup bool) *Result {
		f := build()
		ann := newAnnotator(f, true)
		ann.Oracle = nationalityOracle{}
		ann.Resolver = resolve.New(f.kb, similarity.DefaultThreshold)
		if dedup {
			ann.Interned = f.tbl.Interned()
			ann.Prov = provenance.NewRecorder()
		}
		return ann.Annotate(f.tbl)
	}
	off, on := run(false), run(true)
	for i, want := range []Label{Erroneous, Erroneous, ValidatedByCrowd, Erroneous, Erroneous} {
		if got := off.Tuples[i].Label; got != want {
			t.Fatalf("dedup-off row %d = %v, want %v", i, got, want)
		}
	}
	for _, row := range []int{3, 4} {
		if !off.Tuples[row].NodeByKB[0] || off.Tuples[0].NodeByKB[0] {
			t.Fatalf("dedup-off row %d: the enrichment should move Zuma's type check from the crowd to the KB", row)
		}
	}
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("dedup run differs from dedup-off run\ndedup: %+v\noff:   %+v", on.Tuples, off.Tuples)
	}
}

// TestQuestionMemoSharesDisplayLabels: the question memo is keyed by what
// the prompt is made of, so checks whose prompts coincide share one crowd
// question exactly as they would under a prompt key. Two node types share
// the display label "player", and two properties the label "knows"; the
// same values recur under both. The question counts are those of the
// prompt-keyed memo.
func TestQuestionMemoSharesDisplayLabels(t *testing.T) {
	build := func() (*rdf.Store, *pattern.Pattern, *table.Table) {
		kb := rdf.New()
		for _, c := range []string{"y:footballer", "y:cricketer"} {
			kb.AddFact(rdf.IRI(c), rdf.IRI(rdf.IRILabel), rdf.Lit("player"))
		}
		for _, p := range []string{"y:knows", "y:metWith"} {
			kb.AddFact(rdf.IRI(p), rdf.IRI(rdf.IRILabel), rdf.Lit("knows"))
		}
		p := &pattern.Pattern{
			Nodes: []pattern.Node{{Column: 0, Type: kb.Res("y:footballer")}, {Column: 1, Type: kb.Res("y:cricketer")}},
			Edges: []pattern.Edge{{From: 0, To: 1, Prop: kb.Res("y:knows")}, {From: 1, To: 0, Prop: kb.Res("y:metWith")}},
		}
		tbl := table.New("players", "A", "B")
		for _, r := range [][2]string{{"Xavi", "Xavi"}, {"Yuri", "Yuri"}, {"Xavi", "Zico"}, {"Zico", "Xavi"}, {"Xavi", "Zico"}} {
			tbl.Append(r[0], r[1])
		}
		return kb, p, tbl
	}
	run := func(dedup bool) (*Result, int) {
		kb, p, tbl := build()
		cricketer := kb.Res("y:cricketer")
		ann := &Annotator{
			KB: kb, Pattern: p, Crowd: crowd.Perfect(5),
			// Yuri plays no cricket, and nobody knows themselves.
			Oracle: funcOracle{
				typ: func(v string, typ rdf.ID) bool { return v != "Yuri" || typ != cricketer },
				rel: func(s string, _ rdf.ID, o string) bool { return s != o },
			},
		}
		if dedup {
			ann.Interned = tbl.Interned()
		}
		res := ann.Annotate(tbl)
		return res, ann.Crowd.Stats().Questions
	}
	on, qOn := run(true)
	off, qOff := run(false)
	if qOn != 8 || qOff != 20 {
		t.Fatalf("crowd questions: %d with dedup, %d without; want 8 and 20", qOn, qOff)
	}
	for i, want := range []Label{Erroneous, Erroneous, ValidatedByCrowd, ValidatedByCrowd, ValidatedByCrowd} {
		if got := on.Tuples[i].Label; got != want {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("dedup run differs from dedup-off run\ndedup: %+v\noff:   %+v", on.Tuples, off.Tuples)
	}
}

// funcOracle answers fact checks through two functions.
type funcOracle struct {
	typ func(string, rdf.ID) bool
	rel func(string, rdf.ID, string) bool
}

func (o funcOracle) TypeHolds(v string, typ rdf.ID) bool          { return o.typ(v, typ) }
func (o funcOracle) RelHolds(s string, p rdf.ID, obj string) bool { return o.rel(s, p, obj) }

// TestCoverageAllocationPerSignature pins the coverage pass's allocations:
// each distinct value is resolved once per pass and each signature costs
// its Match and the few slices in it, not a map per candidate list, per
// node flag set and per assignment search.
func TestCoverageAllocationPerSignature(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	f := newFixture()
	persons := []string{"Rossi", "Klate", "Pirlo", "Totti", "Baggio", "Zoff", "Maldini", "Nesta", "Conte", "Gattuso"}
	countries := []string{"Italy", "S. Africa", "Spain", "France", "Brazil", "Chile", "Ghana", "Japan", "Peru", "Norway"}
	capitals := []string{"Rome", "Pretoria", "Madrid", "Paris", "Brasilia", "Santiago", "Accra", "Tokyo", "Lima", "Oslo"}
	for i := range persons {
		for _, e := range [][3]string{{"y:p" + persons[i], "person", persons[i]}, {"y:c" + countries[i], "country", countries[i]}, {"y:k" + capitals[i], "capital", capitals[i]}} {
			f.kb.AddFact(rdf.IRI(e[0]), rdf.IRI(rdf.IRIType), rdf.IRI(e[1]))
			f.kb.AddFact(rdf.IRI(e[0]), rdf.IRI(rdf.IRILabel), rdf.Lit(e[2]))
		}
		f.kb.AddFact(rdf.IRI("y:p"+persons[i]), rdf.IRI("nationality"), rdf.IRI("y:c"+countries[i]))
		f.kb.AddFact(rdf.IRI("y:c"+countries[i]), rdf.IRI("hasCapital"), rdf.IRI("y:k"+capitals[i]))
	}
	f.tbl = table.New("soccer", "A", "B", "C")
	for _, p := range persons {
		for _, c := range countries {
			for _, k := range capitals {
				f.tbl.Append(p, c, k)
			}
		}
	}
	in := f.tbl.Interned()
	ann := newAnnotator(f, false)
	ann.Resolver = resolve.New(f.kb, similarity.DefaultThreshold)
	out := make([]*pattern.Match, f.tbl.NumRows())
	allocs := testing.AllocsPerRun(5, func() {
		ann.EvaluateCoverageGroups(f.tbl, in.Groups(), 0, in.NumGroups(), out, nil)
	})
	if perSig := allocs / float64(in.NumGroups()); perSig > 5 {
		t.Fatalf("coverage allocates %.2f times per signature (%d signatures), want <= 5", perSig, in.NumGroups())
	}
}
