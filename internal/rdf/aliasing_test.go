package rdf

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
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

// storeView renders everything a write could change, by term value and by
// ID: the term table and lookups of the terms the clone tests add, the
// triple stream, subject descriptions, the counters, the label log, label
// resolution and the subclass closure. It only looks terms up, so reading a
// view writes nothing.
func storeView(s *Store) []string {
	out := renderTriples(s)
	for id := 0; id < s.NumTerms(); id++ {
		out = append(out, fmt.Sprintf("term %d = %s", id, s.Term(ID(id))))
	}
	for _, term := range []Term{IRI("ex:Italy"), IRI("ex:Milan"), IRI("ex:Capital"), IRI("ex:Place"), IRI("ex:Naples"), Lit("Naples"), IRI("ex:Region")} {
		id := s.LookupTerm(term)
		out = append(out, fmt.Sprintf("lookup %s = %d", term, id))
		if id == NoID {
			continue
		}
		for _, tr := range s.Description(id) {
			out = append(out, fmt.Sprintf("describe %s: %s %s", term, s.Term(tr.P), s.Term(tr.O)))
		}
		for _, p := range s.Predicates() {
			for _, su := range s.Subjects(p, id) {
				out = append(out, fmt.Sprintf("subject of %s %s: %s", s.Term(p), term, s.Term(su)))
			}
		}
	}
	labels, ok := s.LabelsSince(0)
	out = append(out, fmt.Sprintf("triples=%d labelGen=%d labelsSince0=%q,%v",
		s.NumTriples(), s.LabelGen(), labels, ok))
	render := func(ids []ID) []string {
		var r []string
		for _, id := range ids {
			r = append(r, s.Term(id).String())
		}
		return r
	}
	for _, q := range []string{"Rome", "Naples"} {
		var hits []string
		for _, m := range s.MatchLabel(q, 0.7) {
			hits = append(hits, fmt.Sprintf("%s:%v", s.Term(m.Resource), m.Score))
		}
		out = append(out, fmt.Sprintf("match %s = %v, labeled %v", q, hits, render(s.ResourcesLabeled(q))))
	}
	for _, c := range []string{"ex:Capital", "ex:City", "ex:Place"} {
		if id := s.LookupTerm(IRI(c)); id != NoID {
			out = append(out, fmt.Sprintf("super %s = %v", c, render(s.SuperClasses(id))))
		}
	}
	return out
}

// TestCloneIsDeep: after Clone or CloneExact, writing either store leaves
// the other reading exactly as before — no backing array, map, label index
// or closure memo leaks between them. Each kind of write enrichment makes
// is the first write on a fresh pair, so each write path is the one that
// must give the writer its own indexes.
func TestCloneIsDeep(t *testing.T) {
	id := func(s *Store, iri string) ID { return s.LookupTerm(IRI(iri)) }
	writes := []struct {
		name   string
		write  func(*Store)
		landed func(*Store) bool
	}{
		{"existing-key", func(s *Store) { s.AddFact(IRI("ex:Milan"), IRI(IRIType), IRI("ex:Capital")) },
			func(s *Store) bool { return s.Has(id(s, "ex:Milan"), s.TypeID, id(s, "ex:Capital")) }},
		{"new-term", func(s *Store) { s.Res("ex:Naples") },
			func(s *Store) bool { return id(s, "ex:Naples") != NoID }},
		{"new-label", func(s *Store) { s.AddFact(IRI("ex:Milan"), IRI(IRILabel), Lit("Rome")) },
			func(s *Store) bool { return len(s.ResourcesLabeled("Rome")) == 2 }},
		{"subClassOf", func(s *Store) { s.AddFact(IRI("ex:Place"), IRI(IRISubClassOf), IRI("ex:Italy")) },
			func(s *Store) bool { return s.IsSubClassOf(id(s, "ex:Capital"), id(s, "ex:Italy")) }},
	}
	for _, c := range []struct {
		name  string
		clone func(*Store) *Store
	}{
		{"Clone", (*Store).Clone},
		{"CloneExact", (*Store).CloneExact},
	} {
		for _, w := range writes {
			for _, writeClone := range []bool{false, true} {
				side := "source"
				if writeClone {
					side = "clone"
				}
				t.Run(c.name+"/"+w.name+"/write-"+side, func(t *testing.T) {
					src := buildAliasKB()
					src.WarmClosures()
					clone := c.clone(src)
					written, kept := src, clone
					if writeClone {
						written, kept = clone, src
					}
					before := storeView(kept)
					w.write(written)
					if got := storeView(kept); !reflect.DeepEqual(got, before) {
						t.Fatalf("unwritten store changed:\ngot  %q\nwant %q", got, before)
					}
					if !w.landed(written) {
						t.Fatal("the write did not land on the written store")
					}
				})
			}
		}
	}
}

// TestCloneExactIsConstantCost pins the copy-on-write snapshot: CloneExact
// allocates the new Store and nothing else, whatever the store's size, a
// duplicate Add on a share copies nothing, and a share pays its copy once.
func TestCloneExactIsConstantCost(t *testing.T) {
	for _, n := range []int{10, 5000} {
		s := New()
		for i := 0; i < n; i++ {
			s.AddFact(IRI(fmt.Sprintf("ex:r%d", i)), IRI(IRILabel), Lit(fmt.Sprintf("label %d", i)))
		}
		if allocs := testing.AllocsPerRun(100, func() { s.CloneExact() }); allocs > 2 {
			t.Errorf("CloneExact of a %d-label store: %.0f allocs, want <= 2", n, allocs)
		}
		r0, label := s.Res("ex:r0"), s.Literal("label 0")
		if allocs := testing.AllocsPerRun(100, func() { s.CloneExact().Add(r0, s.LabelID, label) }); allocs > 2 {
			t.Errorf("duplicate Add on a share of a %d-label store: %.0f allocs, want <= 2", n, allocs)
		}
		share := s.CloneExact()
		share.AddFact(IRI("ex:new"), IRI(IRILabel), Lit("new label"))
		if share.shared.Load() {
			t.Errorf("a share of a %d-label store still shares after its first write, so every write copies", n)
		}
	}
}

// enrichAlias writes the kinds of change enrichment makes: a triple on an
// existing key, new terms, a new label and a subClassOf triple.
func enrichAlias(s *Store, tag string) {
	s.AddFact(IRI("ex:Milan"), IRI(IRIType), IRI("ex:Capital"))
	s.AddFact(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Naples"+tag))
	s.AddFact(IRI("ex:Naples"+tag), IRI(IRILabel), Lit("Naples"+tag))
	s.AddFact(IRI("ex:Place"), IRI(IRISubClassOf), IRI("ex:Region"+tag))
}

// TestCloneExactConcurrentShares: goroutines each take CloneExact of one
// quiescent store at once, read their share, enrich it, take a second share,
// and keep writing. The second share reads as of the moment it was taken,
// every copy ends as the same writes applied sequentially to a fresh build
// would leave it, and the source is unchanged.
func TestCloneExactConcurrentShares(t *testing.T) {
	src := buildAliasKB()
	src.WarmClosures()
	want := storeView(src)
	const workers = 6
	type result struct{ fresh, share, final []string }
	results := make([]result, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cp := src.CloneExact()
			results[g].fresh = storeView(cp)
			enrichAlias(cp, fmt.Sprint(g))
			share := cp.CloneExact()
			cp.AddFact(IRI("ex:Rome"), IRI(IRILabel), Lit(fmt.Sprintf("Roma %d", g)))
			results[g].share = storeView(share)
			results[g].final = storeView(cp)
		}(g)
	}
	wg.Wait()

	if got := storeView(src); !reflect.DeepEqual(got, want) {
		t.Fatalf("source changed under concurrent shares:\ngot  %q\nwant %q", got, want)
	}
	for g, r := range results {
		seq := buildAliasKB()
		if !reflect.DeepEqual(r.fresh, storeView(seq)) {
			t.Errorf("worker %d: fresh share differs from the source", g)
		}
		enrichAlias(seq, fmt.Sprint(g))
		if !reflect.DeepEqual(r.share, storeView(seq)) {
			t.Errorf("worker %d: second share differs from a sequential build", g)
		}
		seq.AddFact(IRI("ex:Rome"), IRI(IRILabel), Lit(fmt.Sprintf("Roma %d", g)))
		if !reflect.DeepEqual(r.final, storeView(seq)) {
			t.Errorf("worker %d: enriched copy differs from a sequential build", g)
		}
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
	clone.own() // Grow writes the index, which the clone shares until then
	clone.fuzzy.Grow(len(burst))
	for i, l := range burst {
		clone.AddFact(IRI(fmt.Sprintf("ex:r%d", len(base)+i)), IRI(IRILabel), Lit(l))
	}
	same("CloneExact after Grow + Add", clone, build(append(append([]string(nil), base...), burst...)))
}
