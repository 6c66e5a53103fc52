package rdf

import (
	"math"
	"reflect"
	"testing"

	"katara/internal/similarity"
)

// fuzzLabelStore is a fixed store whose labels cover the shapes fuzzy
// resolution must survive: unicode, punctuation, shared prefixes, duplicate
// labels on distinct resources, and an empty label. With split set, the
// labels from "ex:pretoria" on are added to a CloneExact share of the store
// holding the others, so they land in the share's own fuzzy index over the
// frozen base; both forms intern the same terms at the same IDs.
func fuzzLabelStore(split bool) *Store { return fuzzLabelStoreAt(split, math.MaxInt) }

// fuzzLabelStoreAt is fuzzLabelStore as it read at label generation gen:
// only the first gen labels are added, under the same term IDs.
func fuzzLabelStoreAt(split bool, gen int) *Store {
	st := New()
	labels := []struct {
		iri    string
		labels []string
	}{
		{"ex:rome", []string{"Rome", "Roma"}},
		{"ex:romania", []string{"Romania"}},
		{"ex:madrid", []string{"Madrid"}},
		{"ex:pretoria", []string{"Pretoria"}},
		{"ex:capetown", []string{"Cape Town"}},
		{"ex:south_africa", []string{"S. Africa", "South Africa"}},
		{"ex:uk", []string{"UK", "United Kingdom"}},
		{"ex:ivorycoast", []string{"Côte d'Ivoire"}},
		{"ex:joburg", []string{"Johannesburg"}},
		{"ex:joburg2", []string{"Johannesburg"}},
		{"ex:blank", []string{""}},
	}
	for _, r := range labels {
		if split && r.iri == "ex:pretoria" {
			st = st.CloneExact()
		}
		id := st.Res(r.iri)
		for _, l := range r.labels {
			if st.LabelGen() == uint64(gen) {
				return st
			}
			st.Add(id, st.LabelID, st.Literal(l))
		}
	}
	return st
}

// FuzzMatchLabel drives Store.MatchLabel with arbitrary cell values and
// thresholds: it must never panic, scores must land in [threshold, 1],
// results must be sorted best-first with deterministic tie-breaking and no
// duplicate resources, the same call twice must return identical hits, and
// a written share, which merges its base's hits with its own, must return
// exactly the hits of the store that indexes every label in one index, and
// so must a store whose own layer is frozen (the source of a CloneExact),
// which answers from its memo, on the call that fills the memo and on the
// call that hits it. Catching up the answer a store gave at any earlier
// generation (MatchLabelSince) must give the current answer on all three
// forms: unshared, an unwritten share and a written share, whose older
// generations fall in its frozen base.
func FuzzMatchLabel(f *testing.F) {
	st, layered, frozen := fuzzLabelStore(false), fuzzLabelStore(true), fuzzLabelStore(false)
	frozen.CloneExact()
	past := make([]*Store, st.LabelGen()+1)
	for gen := range past {
		past[gen] = fuzzLabelStoreAt(false, gen)
	}
	f.Add("Rome", 0.7)
	f.Add("S. Africa", 0.7)
	f.Add("Pretorria", 0.5)
	f.Add("", 0.7)
	f.Add("CÔTE D'IVOIRE", 0.3)
	f.Add("johannesburgh", 0.7)
	f.Fuzz(func(t *testing.T, value string, threshold float64) {
		if len(value) > 256 {
			t.Skip("similarity cost grows with length; bound the input")
		}
		// Wild thresholds (NaN, ±Inf, out of range) must not panic; the
		// range invariants below only make sense for a sane threshold.
		wild := st.MatchLabel(value, threshold)
		if got := frozen.MatchLabel(value, threshold); !reflect.DeepEqual(got, wild) {
			t.Fatalf("MatchLabel(%q, %v) on a frozen store:\n%v\nwant the unshared store's hits\n%v", value, threshold, got, wild)
		}
		if math.IsNaN(threshold) || threshold <= 0 || threshold > 1 {
			threshold = 0.7
		}
		got := st.MatchLabel(value, threshold)
		seen := map[ID]bool{}
		for i, m := range got {
			if m.Score < threshold || m.Score > 1 {
				t.Fatalf("hit %d: score %v outside [%v, 1]", i, m.Score, threshold)
			}
			if seen[m.Resource] {
				t.Fatalf("hit %d: duplicate resource %d", i, m.Resource)
			}
			seen[m.Resource] = true
			if i > 0 {
				prev := got[i-1]
				if m.Score > prev.Score {
					t.Fatalf("hit %d: score %v after %v — not best-first", i, m.Score, prev.Score)
				}
				if m.Score == prev.Score && m.Resource <= prev.Resource {
					t.Fatalf("hit %d: tie at %v not broken by ascending resource", i, m.Score)
				}
			}
		}
		if again := st.MatchLabel(value, threshold); !reflect.DeepEqual(got, again) {
			t.Fatalf("MatchLabel(%q, %v) is not deterministic:\n%v\nvs\n%v", value, threshold, got, again)
		}
		if merged := layered.MatchLabel(value, threshold); !reflect.DeepEqual(got, merged) {
			t.Fatalf("MatchLabel(%q, %v) on a written share:\n%v\nwant the one-index hits\n%v", value, threshold, merged, got)
		}
		for pass := 0; pass < 2; pass++ {
			if memo := frozen.MatchLabel(value, threshold); !reflect.DeepEqual(got, memo) {
				t.Fatalf("MatchLabel(%q, %v) on a frozen store, call %d:\n%v\nwant the unshared store's hits\n%v", value, threshold, pass+1, memo, got)
			}
		}
		norm := similarity.Normalize(value)
		for gen, old := range past {
			prior := old.MatchLabelNorm(norm, threshold)
			for _, form := range []struct {
				name string
				s    *Store
			}{{"unshared", st}, {"unwritten share", frozen}, {"written share", layered}} {
				if up := form.s.MatchLabelSince(norm, threshold, uint64(gen), prior); !reflect.DeepEqual(up, got) {
					t.Fatalf("MatchLabelSince(%q, %v, %d) on the %s store:\n%v\nwant the current hits\n%v", norm, threshold, gen, form.name, up, got)
				}
			}
		}
	})
}
