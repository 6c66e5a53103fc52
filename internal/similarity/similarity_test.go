package similarity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"S. Africa", "s africa"},
		{"  Hello   World ", "hello world"},
		{"Rome", "rome"},
		{"P. Eliz.", "p eliz"},
		{"United_Kingdom", "united kingdom"},
		{"O'Brien", "obrien"},
		{"a-b", "a b"},
		{"", ""},
		{"...", ""},
		{"Côte d'Ivoire", "côte divoire"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"rome", "rome", 0},
		{"rome", "roma", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symm := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symm, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); got < 0.95 || got > 0.97 {
		t.Errorf("JaroWinkler(martha,marhta) = %f, want ~0.961", got)
	}
	if got := JaroWinkler("dixon", "dicksonx"); got < 0.8 || got > 0.82 {
		t.Errorf("JaroWinkler(dixon,dicksonx) = %f, want ~0.813", got)
	}
	if JaroWinkler("abc", "abc") != 1 {
		t.Error("identical strings must score 1")
	}
	if JaroWinkler("abc", "xyz") != 0 {
		t.Error("disjoint strings must score 0")
	}
}

func TestJaroBounds(t *testing.T) {
	f := func(a, b string) bool {
		s := Jaro(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrigramJaccard(t *testing.T) {
	if TrigramJaccard("rome", "rome") != 1 {
		t.Error("identical strings must have Jaccard 1")
	}
	if got := TrigramJaccard("night", "day"); got > 0.2 {
		t.Errorf("disjoint-ish strings scored %f", got)
	}
}

func TestScoreAndMatch(t *testing.T) {
	// The paper's running examples: slightly different surface forms of the
	// same entity should match at the 0.7 threshold; distinct entities not.
	yes := [][2]string{
		{"Rome", "rome"},
		{"S. Africa", "S Africa"},
		{"Pretoria", "pretoria"},
		{"United Kingdom", "United  Kingdom"},
		{"Juventus", "Juventuss"},
	}
	for _, p := range yes {
		if !Match(p[0], p[1]) {
			t.Errorf("expected Match(%q,%q)", p[0], p[1])
		}
	}
	no := [][2]string{
		{"Rome", "Madrid"},
		{"Italy", "Spain"},
		{"Pretoria", "Cape Town"},
	}
	for _, p := range no {
		if Match(p[0], p[1]) {
			t.Errorf("expected no Match(%q,%q)", p[0], p[1])
		}
	}
}

func TestScoreBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		s := Score(a, b)
		return s >= 0 && s <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreReflexiveProperty(t *testing.T) {
	f := func(a string) bool { return Score(a, a) == 1 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexExactLookup(t *testing.T) {
	ix := NewIndex()
	idRome := ix.Add("Rome")
	ix.Add("Madrid")
	idRome2 := ix.Add("rome")
	hits := ix.Lookup("ROME", DefaultThreshold)
	if len(hits) < 2 {
		t.Fatalf("expected both rome entries, got %v", hits)
	}
	found := map[int32]bool{}
	for _, h := range hits {
		found[h.ID] = true
		if h.Score < DefaultThreshold {
			t.Errorf("hit below threshold: %v", h)
		}
	}
	if !found[idRome] || !found[idRome2] {
		t.Errorf("missing exact ids in %v", hits)
	}
}

func TestIndexFuzzyLookup(t *testing.T) {
	ix := NewIndex()
	id := ix.Add("Pretoria")
	ix.Add("Cape Town")
	hits := ix.Lookup("Pretorria", DefaultThreshold)
	if len(hits) == 0 || hits[0].ID != id {
		t.Fatalf("fuzzy lookup failed: %v", hits)
	}
	if hits[0].Score >= 1 {
		t.Errorf("fuzzy hit should score below 1, got %f", hits[0].Score)
	}
}

func TestIndexNoFalsePositives(t *testing.T) {
	ix := NewIndex()
	ix.Add("Italy")
	ix.Add("Spain")
	ix.Add("France")
	if hits := ix.Lookup("Zimbabwe", DefaultThreshold); len(hits) != 0 {
		t.Errorf("unexpected hits: %v", hits)
	}
}

func TestIndexOrdering(t *testing.T) {
	ix := NewIndex()
	ix.Add("Johannesburg")
	ix.Add("Johannesbur")
	ix.Add("Johannesburg")
	hits := ix.Lookup("Johannesburg", DefaultThreshold)
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("hits not sorted by score: %v", hits)
		}
	}
}

func TestIndexLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"rome", "roma", "romania", "madrid", "milan", "munich", "paris", "prague", "pretoria"}
	// Extra shapes for the verify kernel: non-ASCII words (the general path
	// for a non-ASCII query, unmatched runes on an ASCII query's masks), and
	// words that repeat into labels over 64 runes (Jaro's scan).
	shapes := append(words, "münchen", "praha", "zürich", "são paulo", "ñuñoa")
	randomLabel := func() string {
		w := shapes[rng.Intn(len(shapes))]
		switch rng.Intn(4) {
		case 0:
			w += string(rune('a' + rng.Intn(26)))
		case 1:
			w += " " + shapes[rng.Intn(len(shapes))]
		case 2:
			for len(w) <= 64 {
				w += " " + shapes[rng.Intn(len(shapes))]
			}
		}
		return w
	}
	ix := NewIndex()
	var stored []string
	for i := 0; i < 200; i++ {
		w := words[rng.Intn(len(words))]
		if rng.Intn(2) == 0 {
			w += string(rune('a' + rng.Intn(26)))
		}
		stored = append(stored, Normalize(w))
		ix.Add(w)
	}
	for i := 0; i < 200; i++ {
		w := randomLabel()
		stored = append(stored, Normalize(w))
		ix.Add(w)
	}
	for _, q := range words {
		hits := ix.Lookup(q, 0.85)
		got := map[int32]bool{}
		for _, h := range hits {
			got[h.ID] = true
		}
		// Every brute-force match at a high threshold must be found by the
		// index (the trigram filter is only allowed to lose low-score hits).
		for id, s := range stored {
			if Score(q, s) >= 0.9 && !got[int32(id)] {
				t.Errorf("index missed %q for query %q (score %f)", s, q, Score(q, s))
			}
		}
	}
	// Past the filter the kernel is exact: every lookup returns exactly the
	// reference scorer's hits, with bit-identical scores.
	queries := append([]string(nil), words...)
	for i := 0; i < 60; i++ {
		queries = append(queries, randomLabel())
	}
	for _, q := range queries {
		for _, threshold := range []float64{0.5, DefaultThreshold, 0.85} {
			if got, want := ix.Lookup(q, threshold), referenceLookup(stored, q, threshold); !sameHits(got, want) {
				t.Fatalf("Lookup(%q, %v):\n got  %v\n want %v", q, threshold, got, want)
			}
		}
	}
}
