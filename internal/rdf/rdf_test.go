package rdf

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"katara/internal/similarity"
)

// ResourcesLabeled returns the resources carrying a label that normalises
// like value, one entry per label triple, found by scanning every triple:
// the reference the fuzzy label index's exact matches are checked against.
func (s *Store) ResourcesLabeled(value string) []ID {
	norm := similarity.Normalize(value)
	var out []ID
	s.ForEachTriple(func(t Triple) {
		if t.P == s.LabelID && s.IsLiteral(t.O) && similarity.Normalize(s.Term(t.O).Value) == norm {
			out = append(out, t.S)
		}
	})
	return out
}

// fixture builds the paper's running-example fragment of Yago (§1, Fig. 2).
func fixture() *Store {
	s := New()
	add := func(sub, pred, obj string) { s.AddFact(IRI(sub), IRI(pred), IRI(obj)) }
	lit := func(sub, pred, obj string) { s.AddFact(IRI(sub), IRI(pred), Lit(obj)) }

	// Class hierarchy.
	add("y:capital", IRISubClassOf, "y:city")
	add("y:city", IRISubClassOf, "y:location")
	add("y:country", IRISubClassOf, "y:location")
	add("y:soccerPlayer", IRISubClassOf, "y:athlete")
	add("y:athlete", IRISubClassOf, "y:person")

	// Property hierarchy.
	add("y:hasCapital", IRISubPropertyOf, "y:locatedIn")

	// Entities.
	for _, e := range []struct{ iri, typ, label string }{
		{"y:Rossi", "y:soccerPlayer", "Rossi"},
		{"y:Pirlo", "y:soccerPlayer", "Pirlo"},
		{"y:Italy", "y:country", "Italy"},
		{"y:Spain", "y:country", "Spain"},
		{"y:Rome", "y:capital", "Rome"},
		{"y:Madrid", "y:capital", "Madrid"},
		{"y:Verona", "y:club", "Verona"},
	} {
		add(e.iri, IRIType, e.typ)
		lit(e.iri, IRILabel, e.label)
	}
	add("y:Italy", "y:hasCapital", "y:Rome")
	add("y:Spain", "y:hasCapital", "y:Madrid")
	add("y:Rossi", "y:nationality", "y:Italy")
	add("y:Pirlo", "y:nationality", "y:Italy")
	lit("y:Rossi", "y:height", "1.78")
	return s
}

func id(t *testing.T, s *Store, iri string) ID {
	t.Helper()
	r := s.LookupTerm(IRI(iri))
	if r == NoID {
		t.Fatalf("missing resource %s", iri)
	}
	return r
}

func TestInternIdempotent(t *testing.T) {
	s := New()
	a := s.Res("y:Italy")
	b := s.Res("y:Italy")
	if a != b {
		t.Fatalf("interning not idempotent: %d vs %d", a, b)
	}
	if s.Literal("Italy") == a {
		t.Fatal("literal and resource with same value must differ")
	}
}

func TestAddDeduplicates(t *testing.T) {
	s := New()
	a, p, b := s.Res("a"), s.Res("p"), s.Res("b")
	if !s.Add(a, p, b) {
		t.Fatal("first add should report new")
	}
	if s.Add(a, p, b) {
		t.Fatal("second add should report duplicate")
	}
	if s.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", s.NumTriples())
	}
}

func TestObjectsSubjects(t *testing.T) {
	s := fixture()
	italy := id(t, s, "y:Italy")
	rome := id(t, s, "y:Rome")
	hasCapital := id(t, s, "y:hasCapital")
	if objs := s.Objects(italy, hasCapital); len(objs) != 1 || objs[0] != rome {
		t.Fatalf("Objects(Italy, hasCapital) = %v", objs)
	}
	if subs := s.Subjects(hasCapital, rome); len(subs) != 1 || subs[0] != italy {
		t.Fatalf("Subjects(hasCapital, Rome) = %v", subs)
	}
	if !s.Has(italy, hasCapital, rome) {
		t.Fatal("Has(Italy, hasCapital, Rome) = false")
	}
	madrid := id(t, s, "y:Madrid")
	if s.Has(italy, hasCapital, madrid) {
		t.Fatal("Has(Italy, hasCapital, Madrid) = true")
	}
}

func TestPredicatesBetween(t *testing.T) {
	s := fixture()
	italy, rome := id(t, s, "y:Italy"), id(t, s, "y:Rome")
	got := s.PredicatesBetween(italy, rome)
	if len(got) != 1 || got[0] != id(t, s, "y:hasCapital") {
		t.Fatalf("PredicatesBetween = %v", got)
	}
	// With sub-property expansion, locatedIn appears too (Q_rels semantics).
	gotSub := s.PredicatesBetweenSub(italy, rome)
	want := []ID{id(t, s, "y:hasCapital"), id(t, s, "y:locatedIn")}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(gotSub) != 2 || gotSub[0] != want[0] || gotSub[1] != want[1] {
		t.Fatalf("PredicatesBetweenSub = %v, want %v", gotSub, want)
	}
}

func TestClassClosure(t *testing.T) {
	s := fixture()
	capital := id(t, s, "y:capital")
	location := id(t, s, "y:location")
	city := id(t, s, "y:city")
	if !s.IsSubClassOf(capital, location) {
		t.Fatal("capital should be transitive subclass of location")
	}
	if !s.IsSubClassOf(capital, capital) {
		t.Fatal("IsSubClassOf must be reflexive")
	}
	if s.IsSubClassOf(location, capital) {
		t.Fatal("closure direction reversed")
	}
	subs := s.SubClasses(location)
	if len(subs) != 3 { // city, capital, country
		t.Fatalf("SubClasses(location) = %v", subs)
	}
	sups := s.SuperClasses(capital)
	if len(sups) != 2 || sups[0] != min2(city, location) {
		t.Fatalf("SuperClasses(capital) = %v", sups)
	}
}

func min2(a, b ID) ID {
	if a < b {
		return a
	}
	return b
}

func TestClosureInvalidation(t *testing.T) {
	s := fixture()
	capital := id(t, s, "y:capital")
	_ = s.SuperClasses(capital) // force memoisation
	s.AddFact(IRI("y:location"), IRI(IRISubClassOf), IRI("y:thing"))
	thing := id(t, s, "y:thing")
	if !s.IsSubClassOf(capital, thing) {
		t.Fatal("closure not recomputed after hierarchy mutation")
	}
}

func TestCycleTolerance(t *testing.T) {
	s := New()
	a, b, c := s.Res("A"), s.Res("B"), s.Res("C")
	s.Add(a, s.SubClassOfID, b)
	s.Add(b, s.SubClassOfID, c)
	s.Add(c, s.SubClassOfID, a)
	// Must terminate; every class of the cycle reaches every one, itself
	// included, whichever class the closure visits first.
	all := []ID{a, b, c}
	for _, n := range all {
		if !slices.Equal(s.SuperClasses(n), all) || !slices.Equal(s.SubClasses(n), all) {
			t.Fatalf("cycle closure of %d incomplete: super %v, sub %v", n, s.SuperClasses(n), s.SubClasses(n))
		}
	}
}

func TestAllTypesAndHasType(t *testing.T) {
	s := fixture()
	rossi := id(t, s, "y:Rossi")
	person := id(t, s, "y:person")
	types := s.AllTypes(rossi)
	if len(types) != 3 { // soccerPlayer, athlete, person
		t.Fatalf("AllTypes(Rossi) = %v", types)
	}
	if !s.HasType(rossi, person) {
		t.Fatal("Rossi should have type person via subsumption")
	}
	country := id(t, s, "y:country")
	if s.HasType(rossi, country) {
		t.Fatal("Rossi is not a country")
	}
}

func TestInstancesOf(t *testing.T) {
	s := fixture()
	location := id(t, s, "y:location")
	got := s.InstancesOf(location)
	if len(got) != 4 { // Italy, Spain, Rome, Madrid
		t.Fatalf("InstancesOf(location) = %d instances, want 4", len(got))
	}
	capital := id(t, s, "y:capital")
	if got := s.InstancesOf(capital); len(got) != 2 {
		t.Fatalf("InstancesOf(capital) = %d, want 2", len(got))
	}
}

func TestHasPredicateWithSubProperty(t *testing.T) {
	s := fixture()
	italy, rome := id(t, s, "y:Italy"), id(t, s, "y:Rome")
	locatedIn := id(t, s, "y:locatedIn")
	if !s.HasPredicate(italy, locatedIn, rome) {
		t.Fatal("hasCapital should satisfy locatedIn via subPropertyOf")
	}
	nationality := id(t, s, "y:nationality")
	if s.HasPredicate(italy, nationality, rome) {
		t.Fatal("unrelated property matched")
	}
}

// LabelsOf returns the label strings of x.
func (s *Store) LabelsOf(x ID) []string {
	objs := s.Objects(x, s.LabelID)
	out := make([]string, 0, len(objs))
	for _, o := range objs {
		if s.IsLiteral(o) {
			out = append(out, s.Term(o).Value)
		}
	}
	return out
}

func TestLabels(t *testing.T) {
	s := fixture()
	rome := id(t, s, "y:Rome")
	if got := s.LabelOf(rome); got != "Rome" {
		t.Fatalf("LabelOf(Rome) = %q", got)
	}
	// Every crowd check's question key reads a label: LabelOf returns the
	// stored string without building the label list.
	if allocs := testing.AllocsPerRun(100, func() { s.LabelOf(rome) }); allocs != 0 {
		t.Fatalf("LabelOf allocates %v per call, want 0", allocs)
	}
	if rs := s.ResourcesLabeled("rome"); len(rs) != 1 || rs[0] != rome {
		t.Fatalf("ResourcesLabeled(rome) = %v", rs)
	}
	if rs := s.ResourcesLabeled("ROME  "); len(rs) != 1 {
		t.Fatalf("normalised lookup failed: %v", rs)
	}
}

// TestDisplayName pins the §5.1 fallback labels, which reach crowd prompts
// and the repair index whenever a resource has no rdfs:label.
func TestDisplayName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://yago-knowledge.org/resource/hasCapital", "hasCapital"},
		{"http://yago-knowledge.org/resource/wordnet_capital_10851850", "wordnet capital 10851850"},
		{"y:hasCapital", "hasCapital"},
		{"plain", "plain"},
		{"", ""},
		{"http://dbpedia.org/ontology/Person#name", "Person name"},
		{"http://example.org/ns#", "ns"},
		{"http://example.org/", ""},
		{"http://example.org/_leading_and_trailing_", "leading and trailing"},
		{"urn:x:y_z", "y z"},
		{"a:b/c", "c"},
		{"a/b:c_d#e", "c d e"},
		{"enriched:s africa", "s africa"},
		{"double__underscore", "double  underscore"},
	}
	for _, c := range cases {
		if got := DisplayName(c.in); got != c.want {
			t.Errorf("DisplayName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMatchLabelFuzzy(t *testing.T) {
	s := fixture()
	rome := id(t, s, "y:Rome")
	hits := s.MatchLabel("Romee", 0.7)
	if len(hits) == 0 || hits[0].Resource != rome {
		t.Fatalf("MatchLabel(Romee) = %v", hits)
	}
	if hits := s.MatchLabel("Johannesburg", 0.7); len(hits) != 0 {
		t.Fatalf("unexpected fuzzy hits: %v", hits)
	}
}

func TestLabelOfFallsBackToIRI(t *testing.T) {
	s := New()
	x := s.Res("http://kb/resource/Some_Entity")
	if got := s.LabelOf(x); got != "Some Entity" {
		t.Fatalf("LabelOf fallback = %q", got)
	}
}

func TestDescriptionAndPredicates(t *testing.T) {
	s := fixture()
	rossi := id(t, s, "y:Rossi")
	desc := s.Description(rossi)
	if len(desc) != 4 { // type, label, nationality, height
		t.Fatalf("Description(Rossi) = %d triples, want 4", len(desc))
	}
	preds := map[ID]bool{}
	for _, tr := range desc {
		preds[tr.P] = true
	}
	if len(preds) != 4 {
		t.Fatalf("Description(Rossi) has %d distinct predicates, want 4", len(preds))
	}
}

func TestForEachTripleCount(t *testing.T) {
	s := fixture()
	n := 0
	s.ForEachTriple(func(Triple) { n++ })
	if n != s.NumTriples() {
		t.Fatalf("ForEachTriple visited %d, store has %d", n, s.NumTriples())
	}
}

func TestRandomizedIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	type tr struct{ a, p, b ID }
	var all []tr
	res := make([]ID, 30)
	for i := range res {
		res[i] = s.Res(string(rune('A' + i)))
	}
	preds := make([]ID, 5)
	for i := range preds {
		preds[i] = s.Res("p" + string(rune('0'+i)))
	}
	seen := map[tr]bool{}
	for i := 0; i < 500; i++ {
		x := tr{res[rng.Intn(len(res))], preds[rng.Intn(len(preds))], res[rng.Intn(len(res))]}
		isNew := s.Add(x.a, x.p, x.b)
		if isNew == seen[x] {
			t.Fatalf("dedup mismatch for %v", x)
		}
		if !seen[x] {
			seen[x] = true
			all = append(all, x)
		}
	}
	if s.NumTriples() != len(all) {
		t.Fatalf("NumTriples = %d, want %d", s.NumTriples(), len(all))
	}
	for _, x := range all {
		if !s.Has(x.a, x.p, x.b) {
			t.Fatalf("lost triple %v", x)
		}
		found := false
		for _, o := range s.Objects(x.a, x.p) {
			if o == x.b {
				found = true
			}
		}
		if !found {
			t.Fatalf("Objects index missing %v", x)
		}
		found = false
		for _, su := range s.Subjects(x.p, x.b) {
			if su == x.a {
				found = true
			}
		}
		if !found {
			t.Fatalf("Subjects index missing %v", x)
		}
	}
	// Objects lists must be sorted (binary-search invariant).
	for _, p := range preds {
		for _, r := range res {
			objs := s.Objects(r, p)
			if !sort.SliceIsSorted(objs, func(i, j int) bool { return objs[i] < objs[j] }) {
				t.Fatalf("Objects(%d,%d) unsorted: %v", r, p, objs)
			}
		}
	}
}
