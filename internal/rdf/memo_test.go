package rdf

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// frozenLabelStore is fuzzLabelStore(false) with its own layer frozen: the
// source of a CloneExact, which memoises its label lookups from then on.
func frozenLabelStore() *Store {
	s := fuzzLabelStore(false)
	s.CloneExact()
	return s
}

// TestLabelMemoBound: a frozen layer's memo never holds more than
// maxLabelMemo entries. Filling it past the bound clears it wholesale and
// counts a reset, and every answer, before and after the reset, equals the
// lookup of a store that never shared.
func TestLabelMemoBound(t *testing.T) {
	frozen, ref := frozenLabelStore(), fuzzLabelStore(false)
	queries := []string{"rome", "romania", "south africa", "johannesburgh", "cote divoire"}
	check := func(q string) {
		t.Helper()
		if got, want := frozen.MatchLabelNorm(q, 0.7), ref.MatchLabelNorm(q, 0.7); !reflect.DeepEqual(got, want) {
			t.Fatalf("MatchLabelNorm(%q) = %v, an unshared store gives %v", q, got, want)
		}
	}
	for _, q := range queries {
		check(q)
	}
	for i := 0; i < maxLabelMemo+len(queries); i++ {
		q := fmt.Sprintf("rome %d", i)
		frozen.MatchLabelNorm(q, 0.7)
		if entries, _ := frozen.LabelMemo(nil); entries > maxLabelMemo {
			t.Fatalf("after %d queries the memo holds %d entries, bound %d", i+1, entries, maxLabelMemo)
		}
	}
	if _, resets := frozen.LabelMemo(nil); resets != 1 {
		t.Fatalf("%d resets after filling the memo once past its bound, want 1", resets)
	}
	for _, q := range append(queries, "rome 0", fmt.Sprintf("rome %d", maxLabelMemo)) {
		check(q)
		check(q)
	}
}

// TestLabelMemoSkipsWildThresholds: a threshold that is NaN or outside
// (0, 1] is answered by lookup and never memoised. NaN never equals itself,
// so as a key it could only ever add entries.
func TestLabelMemoSkipsWildThresholds(t *testing.T) {
	frozen, ref := frozenLabelStore(), fuzzLabelStore(false)
	for _, th := range []float64{math.NaN(), 0, -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		for _, q := range []string{"rome", "roma", "south africa", ""} {
			for pass := 0; pass < 2; pass++ {
				if got, want := frozen.MatchLabelNorm(q, th), ref.MatchLabelNorm(q, th); !reflect.DeepEqual(got, want) {
					t.Fatalf("MatchLabelNorm(%q, %v) = %v, an unshared store gives %v", q, th, got, want)
				}
			}
		}
	}
	if entries, resets := frozen.LabelMemo(nil); entries != 0 || resets != 0 {
		t.Fatalf("wild thresholds left %d memo entries and %d resets, want none", entries, resets)
	}
	frozen.MatchLabelNorm("rome", 1)
	if entries, _ := frozen.LabelMemo(nil); entries != 1 {
		t.Fatalf("threshold 1 left %d memo entries, want 1", entries)
	}
	if entries, _ := ref.LabelMemo(nil); entries != 0 {
		t.Fatalf("a store that never shared memoised %d lookups, want none", entries)
	}
}
