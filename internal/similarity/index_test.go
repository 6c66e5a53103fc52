package similarity

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// LookupNormalized is LookupNormalizedFrom over every id.
func (ix *Index) LookupNormalized(n string, threshold float64) []Candidate {
	return ix.LookupNormalizedFrom(n, threshold, 0)
}

// Lookup is LookupNormalized on the normalised query: the raw-string entry
// the tests query through.
func (ix *Index) Lookup(q string, threshold float64) []Candidate {
	return ix.LookupNormalized(Normalize(q), threshold)
}

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
	// The hit index: 300 variants of one name, some with a non-ASCII rune
	// (which no query mask matches) and some over 64 runes (Jaro's scan), so
	// one lookup takes both Jaro paths many times.
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
		name      string
		entries   []string
		query     string
		threshold float64
		// allocs: the query's Normalize, plus the result slice on a hit —
		// nothing per verified candidate.
		allocs   float64
		minCands int
	}{
		// A miss touches the whole filter path (padding, trigram encoding,
		// posting scans) but produces no output.
		{"miss", []string{"Rome", "Madrid", "Paris", "Berlin", "Lisbon", "Vienna"}, "Zanzibar", DefaultThreshold, 1, 0},
		{"hit", hitEntries, "Port Elizabeth", DefaultThreshold, 2, 200},
		// Few of the verified candidates reach a high threshold: the result
		// is sized by the hits, not by the candidates.
		{"few hits", hitEntries, "Port Elizabeth", 0.96, 2, 200},
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
			hits := len(ix.Lookup(tc.query, tc.threshold)) // also warms the scratch pool
			const runs = 100
			allocs := testing.AllocsPerRun(runs, func() {
				ix.Lookup(tc.query, tc.threshold)
			})
			if allocs > tc.allocs {
				t.Errorf("lookup allocates %.1f per op, want <= %v", allocs, tc.allocs)
			}
			// Bytes: the normalised query and the result at its hit count,
			// with room for size-class rounding.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				ix.Lookup(tc.query, tc.threshold)
			}
			runtime.ReadMemStats(&after)
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
			if want := float64(len(tc.query)+32) + float64(16*hits)*9/8; perOp > want {
				t.Errorf("lookup allocates %.0f bytes per op for %d hits, want <= %.0f", perOp, hits, want)
			}
		})
	}
}

// TestConcurrentLookups runs lookups from several goroutines on one
// quiescent index: each must return what the same lookup returns alone.
// Every lookup borrows a pooled scratch whose query table (peq) it builds
// and clears, so a table leaking from one lookup into the next would show
// as a wrong score here, and a shared one as a race under -race.
func TestConcurrentLookups(t *testing.T) {
	ix := fuzzIndex()
	for i := 0; i < 200; i++ {
		ix.Add(fmt.Sprintf("port elizabeth %c%d", 'a'+i%26, i))
	}
	queries := []string{
		"Rome", "Romania", "Johannesburgh", "Port Elizabeth", "port elizabet a1",
		"Zurich", "São Paulo", "CÔTE D'IVOIRE", "a", strings.Repeat("a", 64),
		strings.Repeat("a", 65), strings.Repeat("ab", 40),
		"Royal Academy of Dramatic Art and Music of the United Kingdom of Great Britan",
	}
	want := make([][]Candidate, len(queries))
	for i, q := range queries {
		want[i] = ix.Lookup(q, 0.5)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for j := range queries {
					i := (j*(g+1) + round) % len(queries)
					if got := ix.Lookup(queries[i], 0.5); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d: Lookup(%q) = %v, alone %v", g, queries[i], got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
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
