package rdf

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// Objects/Subjects (and the closure accessors) return slices shared with the
// store's indexes under a documented read-only contract. These tests pin the
// contract down: the read API must never mutate the shared slices, and a
// regression that sorts or rewrites one in place is caught by comparing the
// store's full triple stream against an untouched clone.

func buildAliasKB() *Store {
	s := New()
	add := func(sub, pred, obj Term) { s.AddFact(sub, pred, obj) }
	add(IRI("ex:City"), IRI(IRISubClassOf), IRI("ex:Place"))
	add(IRI("ex:Capital"), IRI(IRISubClassOf), IRI("ex:City"))
	add(IRI("ex:hasCapital"), IRI(IRISubPropertyOf), IRI("ex:hasCity"))
	add(IRI("ex:Rome"), IRI(IRIType), IRI("ex:Capital"))
	add(IRI("ex:Rome"), IRI(IRIType), IRI("ex:City"))
	add(IRI("ex:Milan"), IRI(IRIType), IRI("ex:City"))
	add(IRI("ex:Italy"), IRI("ex:hasCapital"), IRI("ex:Rome"))
	add(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Milan"))
	add(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Rome"))
	add(IRI("ex:Rome"), IRI(IRILabel), Lit("Rome"))
	add(IRI("ex:Milan"), IRI(IRILabel), Lit("Milan"))
	add(IRI("ex:Italy"), IRI(IRILabel), Lit("Italy"))
	return s
}

// renderTriples renders the store's triples by term value, independent of
// interned IDs, so stores built in different orders compare equal.
func renderTriples(s *Store) []string {
	var out []string
	s.ForEachTriple(func(t Triple) {
		out = append(out, s.Term(t.S).String()+" "+s.Term(t.P).String()+" "+s.Term(t.O).String())
	})
	sort.Strings(out)
	return out
}

// exerciseReadAPI runs every read-path accessor that hands out or walks
// shared slices — the operations the pipeline performs between writes.
func exerciseReadAPI(s *Store) {
	city := s.Res("ex:City")
	capital := s.Res("ex:Capital")
	place := s.Res("ex:Place")
	rome := s.Res("ex:Rome")
	italy := s.Res("ex:Italy")
	milan := s.Res("ex:Milan")
	hasCapital := s.Res("ex:hasCapital")
	hasCity := s.Res("ex:hasCity")

	s.Objects(italy, hasCity)
	s.Subjects(s.TypeID, city)
	s.Has(italy, hasCity, rome)
	s.PredicatesBetween(italy, rome)
	s.PredicatesBetweenSub(italy, rome)
	s.PredicatesBetweenSub(italy, milan)
	s.PredicatesOf(italy)
	s.Description(italy)
	s.DirectTypes(rome)
	s.AllTypes(rome)
	s.HasType(rome, place)
	s.HasPredicate(italy, hasCity, rome)
	s.InstancesOf(city)
	s.InstancesOf(place)
	s.Classes()
	s.SuperClasses(capital)
	s.SubClasses(place)
	s.SuperProperties(hasCapital)
	s.SubProperties(hasCity)
	s.IsSubClassOf(capital, place)
	s.IsSubPropertyOf(hasCapital, hasCity)
	s.ResourcesLabeled("Rome")
	s.MatchLabel("Rome", 0.7)
	s.MatchLabel("Romme", 0.7)
	s.LabelsOf(rome)
	s.SubjectsWithPredicate(hasCity)
	s.Predicates()
}

func TestReadAPIDoesNotMutateSharedSlices(t *testing.T) {
	s := buildAliasKB()
	clone := s.Clone()
	wantTriples := renderTriples(clone)

	// Pin direct aliases of the shared slices and copy their contents: any
	// in-place reorder or rewrite by the read API shows up against the copy.
	italy := s.Res("ex:Italy")
	hasCity := s.Res("ex:hasCity")
	city := s.Res("ex:City")
	capital := s.Res("ex:Capital")
	objs := s.Objects(italy, hasCity)
	objsCopy := append([]ID(nil), objs...)
	subs := s.Subjects(s.TypeID, city)
	subsCopy := append([]ID(nil), subs...)
	sups := s.SuperClasses(capital)
	supsCopy := append([]ID(nil), sups...)
	labeled := s.ResourcesLabeled("Rome")
	labeledCopy := append([]ID(nil), labeled...)

	exerciseReadAPI(s)

	if !reflect.DeepEqual(objs, objsCopy) {
		t.Errorf("Objects slice mutated: %v -> %v", objsCopy, objs)
	}
	if !reflect.DeepEqual(subs, subsCopy) {
		t.Errorf("Subjects slice mutated: %v -> %v", subsCopy, subs)
	}
	if !reflect.DeepEqual(sups, supsCopy) {
		t.Errorf("SuperClasses slice mutated: %v -> %v", supsCopy, sups)
	}
	if !reflect.DeepEqual(labeled, labeledCopy) {
		t.Errorf("ResourcesLabeled slice mutated: %v -> %v", labeledCopy, labeled)
	}
	if got := renderTriples(s); !reflect.DeepEqual(got, wantTriples) {
		t.Errorf("triple stream changed under read-only use:\ngot  %v\nwant %v", got, wantTriples)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := buildAliasKB()
	clone := s.Clone()
	before := renderTriples(clone)
	// Mutating the original must not leak into the clone through any shared
	// backing array.
	s.AddFact(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Naples"))
	s.AddFact(IRI("ex:Naples"), IRI(IRILabel), Lit("Naples"))
	if got := renderTriples(clone); !reflect.DeepEqual(got, before) {
		t.Fatalf("clone changed when original was mutated:\ngot  %v\nwant %v", got, before)
	}
	if len(clone.MatchLabel("Naples", 0.7)) != 0 {
		t.Fatal("clone's label index leaked the original's new label")
	}
}

// TestCloneExactLabelIndexMatchesDirectBuild: the fuzzy label index keeps
// per-entry data beside the labels (distinct-trigram counts) that the
// lookup's verify kernel reads. A CloneExact
// snapshot — and that snapshot after a reserved burst of new labels — must
// resolve a fixed query set exactly as a store built directly from the same
// labels does, over ASCII, non-ASCII and over-64-byte labels.
func TestCloneExactLabelIndexMatchesDirectBuild(t *testing.T) {
	base := []string{
		"Rome", "Roma", "Romania", "São Paulo", "Zürich", "Malmö", "Cape Town",
		"Royal Academy of Dramatic Art and Music of the United Kingdom of Great Britain",
	}
	burst := []string{
		"Zurich", "Sao Paulo", "Malmo", "Romano",
		"Royal Academy of Dramatic Art and Music of the United Kingdom of Great Britian",
	}
	queries := []string{
		"rome", "romania", "sao paulo", "são paolo", "zurich", "zürich", "malmo",
		"cape towne", "royal academy of dramatic art and music of the united kingdom of great britan",
	}
	build := func(labels []string) *Store {
		s := New()
		for i, l := range labels {
			s.AddFact(IRI(fmt.Sprintf("ex:r%d", i)), IRI(IRILabel), Lit(l))
		}
		return s
	}
	same := func(stage string, got, want *Store) {
		t.Helper()
		for _, q := range queries {
			g, w := got.MatchLabelNorm(q, 0.7), want.MatchLabelNorm(q, 0.7)
			if len(w) == 0 {
				t.Fatalf("query %q resolves nothing; the check needs hits", q)
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: MatchLabelNorm(%q) = %v, direct build gives %v", stage, q, g, w)
			}
		}
	}
	clone := build(base).CloneExact()
	same("CloneExact", clone, build(base))
	clone.fuzzy.Grow(len(burst))
	for i, l := range burst {
		clone.AddFact(IRI(fmt.Sprintf("ex:r%d", len(base)+i)), IRI(IRILabel), Lit(l))
	}
	same("CloneExact after Grow + Add", clone, build(append(append([]string(nil), base...), burst...)))
}
