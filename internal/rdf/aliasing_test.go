package rdf

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"katara/internal/similarity"
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
	// Italy's fifth triple and three resources sharing a label leave spare
	// capacity in Italy's description and in the label's index entry, which
	// two shares appending to them must not both fill.
	add(IRI("ex:Italy"), IRI(IRIType), IRI("ex:Country"))
	for i := 1; i <= 3; i++ {
		add(IRI(fmt.Sprintf("ex:Springfield%d", i)), IRI(IRILabel), Lit("Springfield"))
	}
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
// triple stream, subject descriptions, the counters, label resolution (in
// full, and among the labels indexed from each generation on) and the
// subclass closure. It only looks terms up, so reading a view writes
// nothing.
func storeView(s *Store) []string {
	out := renderTriples(s)
	for id := 0; id < s.NumTerms(); id++ {
		out = append(out, fmt.Sprintf("term %d = %s", id, s.Term(ID(id))))
	}
	for _, term := range []Term{IRI("ex:Italy"), IRI("ex:Milan"), IRI("ex:Capital"), IRI("ex:Place"), IRI("ex:Naples"), Lit("Naples"), IRI("ex:Region"), Lit("Springfield")} {
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
	out = append(out, fmt.Sprintf("triples=%d labelGen=%d", s.NumTriples(), s.LabelGen()))
	render := func(ids []ID) []string {
		var r []string
		for _, id := range ids {
			r = append(r, s.Term(id).String())
		}
		return r
	}
	hits := func(ms []LabelMatch) []string {
		var r []string
		for _, m := range ms {
			r = append(r, fmt.Sprintf("%s:%v", s.Term(m.Resource), m.Score))
		}
		return r
	}
	for _, q := range []string{"Rome", "Naples", "Springfield"} {
		out = append(out, fmt.Sprintf("match %s = %v, labeled %v", q, hits(s.MatchLabel(q, 0.7)), render(s.ResourcesLabeled(q))))
		for gen := uint64(0); gen <= s.LabelGen(); gen++ {
			out = append(out, fmt.Sprintf("match %s since %d = %v", q, gen, hits(s.MatchLabelSince(similarity.Normalize(q), 0.7, gen, nil))))
		}
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
// must start the writer's own layer. Then, per kind of write, a chain:
// share, write the share, share the written store, write both sides, and
// share and write once more. Each store of the chain must read exactly as
// the same writes applied in order to a fresh build, and a share of a
// written store reads through the same frozen base, never a base of a base.
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
	for _, w := range writes {
		t.Run("CloneExact/"+w.name+"/chain", func(t *testing.T) {
			src := buildAliasKB()
			src.WarmClosures()
			want := storeView(src)
			// b interns one more term than a before their enrichment, so
			// entries the two append to the same shared key differ by ID.
			pad := func(s *Store) { s.Res("ex:Padding") }
			a := src.CloneExact()
			w.write(a)
			b := a.CloneExact()
			enrichAlias(a, "a")
			pad(b)
			enrichAlias(b, "b")
			c := b.CloneExact()
			c.AddFact(IRI("ex:Rome"), IRI(IRILabel), Lit("Roma"))
			if got := storeView(src); !reflect.DeepEqual(got, want) {
				t.Fatalf("source changed:\ngot  %q\nwant %q", got, want)
			}
			for _, chain := range []struct {
				name   string
				s      *Store
				writes []func(*Store)
			}{
				{"a", a, []func(*Store){w.write, func(s *Store) { enrichAlias(s, "a") }}},
				{"b", b, []func(*Store){w.write, pad, func(s *Store) { enrichAlias(s, "b") }}},
				{"c", c, []func(*Store){w.write, pad, func(s *Store) { enrichAlias(s, "b") },
					func(s *Store) { s.AddFact(IRI("ex:Rome"), IRI(IRILabel), Lit("Roma")) }}},
			} {
				seq := buildAliasKB()
				for _, write := range chain.writes {
					write(seq)
				}
				if got, want := storeView(chain.s), storeView(seq); !reflect.DeepEqual(got, want) {
					t.Errorf("store %s differs from a sequential build:\ngot  %q\nwant %q", chain.name, got, want)
				}
			}
			if a.base == nil || b.base != a.base || c.base != a.base {
				t.Error("a share of a written store does not read through its source's one base")
			}
		})
	}
}

// TestCloneExactIsConstantCost pins the cost model of the copy-on-write
// snapshot: CloneExact of an unwritten store allocates the new Store and
// nothing else, a duplicate Add on a share copies nothing, and a share's
// first write and every later one allocate within one bound that does not
// grow with the store — a write copies the keys it touches, not the
// indexes.
func TestCloneExactIsConstantCost(t *testing.T) {
	const writeAllocs = 64
	for _, n := range []int{10, 5000} {
		s := New()
		for i := 0; i < n; i++ {
			s.AddFact(IRI(fmt.Sprintf("ex:r%d", i)), IRI(IRILabel), Lit(fmt.Sprintf("label %d", i)))
		}
		// The terms the writes use already exist, so only triples are new.
		r0, label := s.Res("ex:r0"), s.Literal("label 0")
		fresh := s.Res("ex:fresh")
		aliases := make([]ID, 128)
		for i := range aliases {
			aliases[i] = s.Literal(fmt.Sprintf("alias %d", i))
		}
		if allocs := testing.AllocsPerRun(100, func() { s.CloneExact() }); allocs > 2 {
			t.Errorf("CloneExact of a %d-label store: %.0f allocs, want <= 2", n, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.CloneExact().Add(r0, s.LabelID, label) }); allocs > 2 {
			t.Errorf("duplicate Add on a share of a %d-label store: %.0f allocs, want <= 2", n, allocs)
		}
		first := testing.AllocsPerRun(100, func() { s.CloneExact().Add(fresh, s.LabelID, aliases[0]) })
		share := s.CloneExact()
		share.Add(fresh, s.LabelID, aliases[0])
		k := 1
		later := testing.AllocsPerRun(100, func() {
			share.Add(fresh, s.LabelID, aliases[k])
			k++
		})
		if first > writeAllocs || later > writeAllocs {
			t.Errorf("a share of a %d-label store: first write %.0f allocs, later writes %.0f, want <= %d",
				n, first, later, writeAllocs)
		}
	}
}

// enrichAlias writes the kinds of change enrichment makes: a triple on an
// existing key, new terms, new labels (one on a label other resources
// carry) and a subClassOf triple.
func enrichAlias(s *Store, tag string) {
	s.AddFact(IRI("ex:Milan"), IRI(IRIType), IRI("ex:Capital"))
	s.AddFact(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Naples"+tag))
	s.AddFact(IRI("ex:Naples"+tag), IRI(IRILabel), Lit("Naples"+tag))
	s.AddFact(IRI("ex:Springfield"+tag), IRI(IRILabel), Lit("Springfield"))
	s.AddFact(IRI("ex:Place"), IRI(IRISubClassOf), IRI("ex:Region"+tag))
}

// TestCloneExactConcurrentShares: goroutines each take CloneExact of one
// quiescent store at once, read their share, enrich it, take a second share
// of the written store, and write both sides. Each store reads as of its
// own writes — the second share as of the moment it was taken until it
// writes — every copy ends as the same writes applied sequentially to a
// fresh build would leave it, and the source is unchanged.
func TestCloneExactConcurrentShares(t *testing.T) {
	src := buildAliasKB()
	src.WarmClosures()
	want := storeView(src)
	const workers = 6
	type result struct{ fresh, share, final, shareFinal []string }
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
			enrichAlias(share, fmt.Sprintf("s%d", g))
			results[g].final = storeView(cp)
			results[g].shareFinal = storeView(share)
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
		seqShare := buildAliasKB()
		enrichAlias(seqShare, fmt.Sprint(g))
		enrichAlias(seqShare, fmt.Sprintf("s%d", g))
		if !reflect.DeepEqual(r.shareFinal, storeView(seqShare)) {
			t.Errorf("worker %d: written second share differs from a sequential build", g)
		}
		seq.AddFact(IRI("ex:Rome"), IRI(IRILabel), Lit(fmt.Sprintf("Roma %d", g)))
		if !reflect.DeepEqual(r.final, storeView(seq)) {
			t.Errorf("worker %d: enriched copy differs from a sequential build", g)
		}
	}
}

// TestCloneExactLabelIndexMatchesDirectBuild: the fuzzy label index keeps
// per-entry data beside the labels (distinct-trigram counts) that the
// lookup's verify kernel reads. A CloneExact snapshot — and that snapshot
// after a burst of new labels, which land in its own fuzzy index over the
// frozen base's, and a share of the written snapshot — must resolve a fixed
// query set exactly as a store built directly from the same labels does,
// over ASCII, non-ASCII and over-64-byte labels.
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
	for i, l := range burst {
		clone.AddFact(IRI(fmt.Sprintf("ex:r%d", len(base)+i)), IRI(IRILabel), Lit(l))
	}
	if clone.base == nil || clone.fuzzy.Len() != len(burst) {
		t.Fatalf("the burst did not land in the clone's own index over a base")
	}
	all := build(append(append([]string(nil), base...), burst...))
	same("CloneExact after a burst of Adds", clone, all)
	same("CloneExact of the written clone", clone.CloneExact(), all)
}
