package similarity

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzIndex is a fixed index covering the label shapes the trigram lookup
// and its verify kernel have to handle: short strings, shared prefixes,
// duplicates, punctuation, the empty string, non-ASCII labels and labels
// over 64 bytes (both take the Jaro scan instead of the 64-bit position
// mask), and a long run of one repeated character (many equal symbols in
// one mask word, and a wide Levenshtein band).
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
	strings.Repeat("a", 70), strings.Repeat("a", 40) + "b",
	"São Paulo", "Zürich", "Zurich", "Łódź", "Malmö", "Ñuñoa", "Αθήνα",
}

// FuzzSimilarityLookup feeds arbitrary queries through Index.Lookup and
// checks it against the reference scorer: no panic, Normalize idempotent,
// and, at several thresholds and with the relaxed filter bound, exactly the
// hits referenceLookup computes from the naive scorers over every stored
// value — the same ids (every value that clears the trigram filter and
// scores at least the threshold is returned, nothing else is), the same
// scores bit for bit, best first with ascending-id tie-breaks — and the
// whole call deterministic.
func FuzzSimilarityLookup(f *testing.F) {
	ix := fuzzIndex()
	values := make([]string, ix.Len())
	for id := range values {
		values[id] = ix.Value(int32(id))
	}
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
			if want := referenceLookup(values, q, threshold, false); !sameHits(hits, want) {
				t.Fatalf("Lookup(%q, %v):\n got  %v\n want %v (reference)", q, threshold, hits, want)
			}
			relaxed := ix.LookupNormalizedRelaxed(n, threshold)
			if want := referenceLookup(values, q, threshold, true); !sameHits(relaxed, want) {
				t.Fatalf("LookupNormalizedRelaxed(%q, %v):\n got  %v\n want %v (reference)", n, threshold, relaxed, want)
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
