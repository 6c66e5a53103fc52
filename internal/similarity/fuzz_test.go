package similarity

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzIndex is a fixed index covering the label shapes the trigram lookup
// and its verify kernel have to handle: short strings, shared prefixes,
// duplicates, punctuation, the empty string, non-ASCII labels (whose runes
// no ASCII query rune matches on the query masks), labels of exactly 64 and
// 65 runes (the longest Jaro's mask path takes, and the first the scan
// takes back) and longer ones, and a long run of one repeated character
// (many equal symbols in one mask word, and a wide Levenshtein band).
func fuzzIndex() *Index {
	ix := NewIndex()
	for _, s := range fuzzLabels {
		ix.Add(s)
	}
	return ix
}

var fuzzLabels = []string{
	"Rome", "Roma", "Romania", "romanian", "Madrid", "Paris",
	"Pretoria", "Cape Town", "S. Africa", "South Africa",
	"UK", "United Kingdom", "Côte d'Ivoire",
	"Johannesburg", "Johannesburg", "Johannesburgh",
	"", "banana",
	"Royal Academy of Dramatic Art and Music of the United Kingdom of Great Britain",
	"Royal Academy of Dramatic Art and Music of the United Kingdom of Great Britian",
	"Royal Academy of Dramatic Art and Music of the United Kingdom GB",
	"Royal Academy of Dramatic Art and Music of the United Kingdom GBR",
	strings.Repeat("a", 70), strings.Repeat("a", 40) + "b",
	"São Paulo", "Zürich", "Zurich", "Łódź", "Malmö", "Ñuñoa", "Αθήνα",
}

// FuzzSimilarityLookup feeds arbitrary queries through Index.Lookup and
// checks it against the reference scorer: no panic, Normalize idempotent,
// and, at several thresholds, exactly the hits referenceLookup computes from
// the naive scorers over every stored value — the same ids (every value that
// clears the trigram filter and scores at least the threshold is returned,
// nothing else is), the same scores bit for bit, best first with
// ascending-id tie-breaks — and the whole call deterministic. Under every id
// floor, LookupNormalizedFrom must return exactly the reference hits whose
// id is at least the floor.
func FuzzSimilarityLookup(f *testing.F) {
	ix := fuzzIndex()
	values := ix.values
	f.Add("Rome")
	f.Add("rome ")
	f.Add("Pretorria")
	f.Add("")
	f.Add("bananana")
	f.Add("Johannesburgh")
	f.Add("united  KINGDOM")
	f.Add("CÔTE D'IVOIRE")
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 256 {
			t.Skip("similarity cost grows with length; bound the input")
		}
		n := Normalize(q)
		if again := Normalize(n); again != n {
			t.Fatalf("Normalize not idempotent: %q -> %q -> %q", q, n, again)
		}
		for _, threshold := range []float64{0.3, DefaultThreshold, 0.9} {
			hits := ix.Lookup(q, threshold)
			want := referenceLookup(values, q, threshold)
			if !sameHits(hits, want) {
				t.Fatalf("Lookup(%q, %v):\n got  %v\n want %v (reference)", q, threshold, hits, want)
			}
			for from := int32(-1); from <= int32(len(values))+1; from++ {
				var floored []Candidate
				for _, h := range want {
					if h.ID >= from {
						floored = append(floored, h)
					}
				}
				if got := ix.LookupNormalizedFrom(n, threshold, from); !sameHits(got, floored) {
					t.Fatalf("LookupNormalizedFrom(%q, %v, %d):\n got  %v\n want %v (reference)", n, threshold, from, got, floored)
				}
			}
			if again := ix.Lookup(q, threshold); !reflect.DeepEqual(hits, again) {
				t.Fatalf("Lookup(%q) is not deterministic:\n%v\nvs\n%v", q, hits, again)
			}
		}
	})
}

// sameHits reports whether two hit lists are identical, an empty list and
// nil alike.
func sameHits(a, b []Candidate) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
