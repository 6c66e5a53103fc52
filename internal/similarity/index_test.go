package similarity

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestLookupEmptyQuery(t *testing.T) {
	ix := NewIndex()
	ix.Add("Rome")
	ix.Add("")
	hits := ix.Lookup("", DefaultThreshold)
	if len(hits) != 1 || hits[0].ID != 1 || hits[0].Score != 1 {
		t.Fatalf("empty query should hit only the empty entry exactly, got %v", hits)
	}
	if hits := ix.Lookup("   ", DefaultThreshold); len(hits) != 1 || hits[0].ID != 1 {
		t.Fatalf("whitespace query should normalize to empty, got %v", hits)
	}
}

func TestLookupShortStrings(t *testing.T) {
	ix := NewIndex()
	idUK := ix.Add("UK")
	idUS := ix.Add("US")
	ix.Add("United Kingdom")

	hits := ix.Lookup("UK", DefaultThreshold)
	if len(hits) == 0 || hits[0].ID != idUK || hits[0].Score != 1 {
		t.Fatalf("2-rune exact lookup failed: %v", hits)
	}
	// "uk" vs "us" sits exactly on the 0.7 JaroWinkler boundary; the index
	// must agree with the reference scorer, not silently drop short strings.
	for _, h := range hits {
		if h.ID == idUS && h.Score != Score("UK", "US") {
			t.Fatalf("US scored %f, reference says %f", h.Score, Score("UK", "US"))
		}
	}
	if hits := ix.Lookup("UK", 0.75); len(hits) != 1 || hits[0].ID != idUK {
		t.Fatalf("above the boundary only the exact entry should match: %v", hits)
	}
	if hits := ix.Lookup("a", DefaultThreshold); len(hits) != 0 {
		t.Fatalf("1-rune query with no entry matched %v", hits)
	}
	id := ix.Add("a")
	if hits := ix.Lookup("A", DefaultThreshold); len(hits) != 1 || hits[0].ID != id {
		t.Fatalf("1-rune exact lookup failed: %v", hits)
	}
}

func TestLookupUnicodeNormalization(t *testing.T) {
	ix := NewIndex()
	id := ix.Add("Côte d'Ivoire")
	hits := ix.Lookup("CÔTE D'IVOIRE", DefaultThreshold)
	if len(hits) == 0 || hits[0].ID != id || hits[0].Score != 1 {
		t.Fatalf("case-folded unicode lookup failed: %v", hits)
	}
	hits = ix.Lookup("Côte dIvoire", DefaultThreshold)
	if len(hits) == 0 || hits[0].ID != id {
		t.Fatalf("punctuation-stripped unicode lookup failed: %v", hits)
	}
	// Multi-byte runes must round-trip through the byte-encoded trigrams:
	// a fuzzy (non-exact) query still finds the entry.
	hits = ix.Lookup("Côte d'Ivoir", DefaultThreshold)
	if len(hits) == 0 || hits[0].ID != id {
		t.Fatalf("fuzzy unicode lookup failed: %v", hits)
	}
}

func TestLookupTieOrderDeterministic(t *testing.T) {
	ix := NewIndex()
	// Three identical entries tie at score 1; two near-identical entries tie
	// at the same fuzzy score. Ties must resolve by ascending id, and the
	// whole ordering must be reproducible call over call.
	ix.Add("Johannesburg")
	ix.Add("Johannesburg")
	ix.Add("Johannesburgh")
	ix.Add("Johannesburg")

	first := ix.Lookup("Johannesburg", DefaultThreshold)
	if len(first) != 4 {
		t.Fatalf("expected 4 hits, got %v", first)
	}
	for i := 1; i < len(first); i++ {
		if first[i].Score > first[i-1].Score {
			t.Fatalf("hits not sorted by score: %v", first)
		}
		if first[i].Score == first[i-1].Score && first[i].ID < first[i-1].ID {
			t.Fatalf("equal-score ties not sorted by id: %v", first)
		}
	}
	for round := 0; round < 10; round++ {
		if again := ix.Lookup("Johannesburg", DefaultThreshold); !reflect.DeepEqual(first, again) {
			t.Fatalf("lookup not deterministic: %v vs %v", first, again)
		}
	}
}

func TestLookupAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	// The hit index: 300 variants of one name, some non-ASCII and some over
	// 64 bytes (both take the Jaro scan, the rest the position mask), so one
	// lookup verifies both Jaro paths hundreds of times.
	var hitEntries []string
	for i := 0; i < 300; i++ {
		e := fmt.Sprintf("port elizabeth %c%d", 'a'+i%26, i)
		switch {
		case i%10 == 0:
			e += " élan"
		case i%15 == 1:
			e += strings.Repeat(" metropolitan", 5)
		}
		hitEntries = append(hitEntries, e)
	}
	for _, tc := range []struct {
		name    string
		entries []string
		query   string
		// allocs: the query's Normalize, plus the result slice on a hit —
		// nothing per verified candidate.
		allocs   float64
		minCands int
	}{
		// A miss touches the whole filter path (padding, trigram encoding,
		// posting scans) but produces no output.
		{"miss", []string{"Rome", "Madrid", "Paris", "Berlin", "Lisbon", "Vienna"}, "Zanzibar", 1, 0},
		{"hit", hitEntries, "Port Elizabeth", 2, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewIndex()
			for _, s := range tc.entries {
				ix.Add(s)
			}
			// Candidates the lookup verifies: every entry that clears the
			// trigram filter (any score passes a -Inf threshold).
			if n := len(referenceLookup(ix.values, tc.query, math.Inf(-1))); n < tc.minCands {
				t.Fatalf("%d candidates clear the filter, want >= %d", n, tc.minCands)
			}
			ix.Lookup(tc.query, DefaultThreshold) // warm the scratch pool
			allocs := testing.AllocsPerRun(100, func() {
				ix.Lookup(tc.query, DefaultThreshold)
			})
			if allocs > tc.allocs {
				t.Errorf("lookup allocates %.1f per op, want <= %v", allocs, tc.allocs)
			}
		})
	}
}

func TestAddLookupSharedDedupe(t *testing.T) {
	// Strings with repeated trigrams ("banana" repeats "ana"/"nan") must
	// count each distinct trigram once on both the Add and the Lookup side,
	// or the Jaccard term drifts from set semantics.
	ix := NewIndex()
	id := ix.Add("banana")
	hits := ix.Lookup("banana", DefaultThreshold)
	if len(hits) != 1 || hits[0].ID != id || hits[0].Score != 1 {
		t.Fatalf("self lookup: %v", hits)
	}
	hits = ix.Lookup("bananas", 0.5)
	if len(hits) != 1 || hits[0].ID != id {
		t.Fatalf("fuzzy lookup: %v", hits)
	}
	// The inline Jaccard must agree with the reference implementation.
	want := Score("bananas", "banana")
	if got := hits[0].Score; got != want {
		t.Errorf("inline score %f != reference Score %f", got, want)
	}
}

func TestLookupScoresMatchReference(t *testing.T) {
	// The posting-count scorer must reproduce Score exactly for every hit.
	entries := []string{"Rome", "Roma", "Romania", "romanian", "Madrid", "madrileño", "rome "}
	ix := NewIndex()
	for _, e := range entries {
		ix.Add(e)
	}
	for _, q := range []string{"rome", "roman", "MADRID", "romanía"} {
		for _, h := range ix.Lookup(q, 0.3) {
			if want := Score(q, entries[h.ID]); h.Score != want {
				t.Errorf("Lookup(%q) scored %q as %f, reference Score says %f",
					q, entries[h.ID], h.Score, want)
			}
		}
	}
}
