package annotation

import (
	"reflect"
	"testing"

	"katara/internal/crowd"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/resolve"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// The footprint rule lets a Match evaluated before an enrichment serve rows
// after it. These tests pin the two ways an enrichment can change a later
// row's coverage without touching any resource that row's Match used as a
// candidate, comparing against annotation where every row is evaluated
// fresh (no precompute, no dedup).

// personFixture is a two-column Person table (person -nationality->
// country) over the Fig. 1 KB, with the given rows.
func personFixture(rows ...[2]string) *fixture {
	f := newFixture()
	f.pat = &pattern.Pattern{
		Nodes: []pattern.Node{{Column: 0, Type: f.person}, {Column: 1, Type: f.country}},
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: f.nat}},
	}
	f.tbl = table.New("person", "A", "B")
	for _, r := range rows {
		f.tbl.Append(r[0], r[1])
	}
	return f
}

// annotateModes annotates a fresh fixture two ways and returns both results
// with the precomputing run's KB-lookup count: fresh evaluates every row
// inline without dedup; precomputed evaluates coverage up front (per
// signature under dedup, per row otherwise) and lets the serial pass
// revalidate it across enrichment.
func annotateModes(t *testing.T, build func() *fixture, dedup, resolver bool) (fresh, pre *Result, lookups int64) {
	t.Helper()
	ff := build()
	fresh = newAnnotator(ff, true).Annotate(ff.tbl)

	pf := build()
	ann := newAnnotator(pf, true)
	ann.Telemetry = telemetry.New()
	if resolver {
		ann.Resolver = resolve.New(pf.kb, 0.7)
	}
	matches := make([]*pattern.Match, pf.tbl.NumRows())
	if dedup {
		in := pf.tbl.Interned()
		ann.Interned = in
		ann.EvaluateCoverageGroups(pf.tbl, in.Groups(), 0, in.NumGroups(), matches, ann.Telemetry)
	} else {
		ann.EvaluateCoverage(pf.tbl, 0, pf.tbl.NumRows(), matches, ann.Telemetry)
	}
	pre = ann.AnnotateWith(pf.tbl, matches)
	return fresh, pre, ann.Telemetry.Get(telemetry.KBLookups)
}

func checkModes(t *testing.T, build func() *fixture, wantLabels []Label) {
	t.Helper()
	for _, dedup := range []bool{false, true} {
		for _, resolver := range []bool{false, true} {
			fresh, pre, lookups := annotateModes(t, build, dedup, resolver)
			for i, want := range wantLabels {
				if got := fresh.Tuples[i].Label; got != want {
					t.Fatalf("fresh row %d = %v, want %v", i, got, want)
				}
			}
			if !reflect.DeepEqual(fresh, pre) {
				t.Fatalf("dedup=%v resolver=%v: precomputed coverage diverged from fresh evaluation\nfresh: %+v\npre:   %+v",
					dedup, resolver, fresh.Tuples, pre.Tuples)
			}
			if units := int64(build().tbl.NumRows()); !dedup && lookups <= units {
				t.Fatalf("dedup=%v resolver=%v: %d KB lookups for %d rows; the stale Match was not re-evaluated",
					dedup, resolver, lookups, units)
			}
		}
	}
}

// TestFootprintMintedLabelInvalidates: row 0 names a person the KB lacks,
// so enrichment mints a resource labelled "Mokoena". Row 1's typo
// "Mokoenas" fuzzy-matches that new label: its precomputed Match (no hits)
// is stale even though none of its candidates changed, and a fresh
// evaluation validates it by the KB alone.
func TestFootprintMintedLabelInvalidates(t *testing.T) {
	build := func() *fixture {
		return personFixture([2]string{"Mokoena", "S. Africa"}, [2]string{"Mokoenas", "S. Africa"})
	}
	checkModes(t, build, []Label{ValidatedByCrowd, ValidatedByKB})
}

// TestFootprintTypeOnNonCandidateHitInvalidates: the KB knows Zuma and his
// nationality but not that he is a person, so Zuma resolves to a hit that
// is not a candidate. Row 0's crowd-confirmed type fact adds the type to
// that hit; the duplicate row 1's precomputed Match must be re-evaluated,
// and it is now fully covered by the KB.
func TestFootprintTypeOnNonCandidateHitInvalidates(t *testing.T) {
	build := func() *fixture {
		f := personFixture([2]string{"Zuma", "S. Africa"}, [2]string{"Zuma", "S. Africa"})
		f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI(rdf.IRILabel), rdf.Lit("Zuma"))
		f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI("nationality"), rdf.IRI("y:SAfrica"))
		return f
	}
	checkModes(t, build, []Label{ValidatedByCrowd, ValidatedByKB})
}

// TestFootprintNewEdgeInvalidates: both of Pirlo's cells resolve to typed
// candidates, but the KB lacks Pirlo -nationality-> S. Africa. Row 0's
// confirmed fact adds the edge between exactly the duplicate row 1's
// candidates, so row 1's precomputed Match is stale.
func TestFootprintNewEdgeInvalidates(t *testing.T) {
	build := func() *fixture {
		return personFixture([2]string{"Pirlo", "S. Africa"}, [2]string{"Pirlo", "S. Africa"})
	}
	checkModes(t, build, []Label{ValidatedByCrowd, ValidatedByKB})
}

// TestFootprintUnrelatedEnrichmentKeepsMatch: an enrichment that touches
// neither a later row's hits nor its candidate pairs leaves the row's
// precomputed Match in use — no re-evaluation.
func TestFootprintUnrelatedEnrichmentKeepsMatch(t *testing.T) {
	build := func() *fixture {
		// Row 0's confirmed fact Pirlo -nationality-> S. Africa grows only
		// the (Pirlo, S. Africa) pair; rows 1-2 (Rossi/Italy) read neither.
		return personFixture([2]string{"Pirlo", "S. Africa"}, [2]string{"Rossi", "Italy"}, [2]string{"Rossi", "Italy"})
	}
	fresh, pre, lookups := annotateModes(t, build, false, true)
	if !reflect.DeepEqual(fresh, pre) {
		t.Fatalf("precomputed coverage diverged from fresh evaluation\nfresh: %+v\npre:   %+v", fresh.Tuples, pre.Tuples)
	}
	if fresh.Tuples[0].Label != ValidatedByCrowd {
		t.Fatalf("row 0 = %v, want an enriching crowd validation", fresh.Tuples[0].Label)
	}
	if lookups != 3 {
		t.Fatalf("%d KB lookups, want 3: the untouched Rossi Matches must survive the enrichment", lookups)
	}
}

// TestSessionTuplesLeaveAppendHeadroom: a session pass's tuples become the
// cumulative report's annotations, which every later Append extends. The
// pass leaves room for that, so a small Append does not copy the whole base.
func TestSessionTuplesLeaveAppendHeadroom(t *testing.T) {
	f := personFixture()
	for i := 0; i < 8; i++ {
		f.tbl.Append("Rossi", "Italy")
	}
	ann := newAnnotator(f, true)
	ann.Session = &Session{}
	base := ann.Annotate(f.tbl)
	n := f.tbl.NumRows()
	f.tbl.Append("Pirlo", "S. Africa")
	delta := ann.AnnotateRange(f.tbl, nil, n, n+1)
	if all := append(base.Tuples, delta.Tuples...); &all[0] != &base.Tuples[0] {
		t.Fatalf("appending a one-row pass to %d session tuples copied them all", n)
	}
}

// TestSessionExternalKBChangeDropsMemo: a KB change the annotator did not
// make (a KB delta between session passes) is invisible to its mutation
// log, so the session's per-signature memo must not outlive it. Zuma is
// known with his nationality but not as a person: the first pass has the
// crowd validate him (enrichment off, so the KB stays put). The KB then
// learns his type, and a duplicate row in the next pass is covered by the
// KB alone.
func TestSessionExternalKBChangeDropsMemo(t *testing.T) {
	f := personFixture([2]string{"Zuma", "S. Africa"})
	f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI(rdf.IRILabel), rdf.Lit("Zuma"))
	f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI("nationality"), rdf.IRI("y:SAfrica"))
	ann := newAnnotator(f, false)
	ann.Session = &Session{}
	ann.Interned = f.tbl.Interned()
	if got := ann.Annotate(f.tbl).Tuples[0].Label; got != ValidatedByCrowd {
		t.Fatalf("first pass = %v, want %v", got, ValidatedByCrowd)
	}
	f.kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI(rdf.IRIType), rdf.IRI("person"))
	f.tbl.Append("Zuma", "S. Africa")
	ann.Interned.Extend(f.tbl)
	if got := ann.AnnotateRange(f.tbl, nil, 1, 2).Tuples[0].Label; got != ValidatedByKB {
		t.Fatalf("duplicate after the KB change = %v, want %v: a stale memoised Match served it", got, ValidatedByKB)
	}
}

// TestDuplicateVerdictAllocationFlat: annotating N duplicate rows of one
// fully KB-covered signature decides the signature once and copies the
// verdict, so the allocation count does not grow with N.
func TestDuplicateVerdictAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	allocs := func(n int) float64 {
		f := newFixture()
		f.tbl = table.New("soccer", "A", "B", "C")
		for i := 0; i < n; i++ {
			f.tbl.Append("Rossi", "Italy", "Rome")
		}
		ann := newAnnotator(f, true)
		ann.Crowd = crowd.Perfect(5)
		ann.Interned = f.tbl.Interned()
		return testing.AllocsPerRun(10, func() { ann.Annotate(f.tbl) })
	}
	// A per-row allocation would add thousands; the slack of two absorbs
	// the garbage collector's own bookkeeping, which a 4096-row result
	// slice can trigger.
	small, big := allocs(16), allocs(4096)
	if big > small+2 {
		t.Fatalf("annotating 4096 duplicates allocates %.0f times, 16 duplicates %.0f: per-row allocation", big, small)
	}
	if small > 80 {
		t.Fatalf("annotating one covered signature allocates %.0f times, want <= 80", small)
	}
}
