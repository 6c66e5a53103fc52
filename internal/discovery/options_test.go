package discovery

import (
	"math"
	"testing"

	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/table"
)

// wordsA and wordsB are mutually dissimilar value pools (no shared stems),
// so fuzzy matching behaves like it does on real entity names.
var wordsA = []string{
	"apple", "bridge", "candle", "dolphin", "engine", "falcon", "guitar",
	"harbor", "island", "jacket", "kitten", "lantern", "meadow", "needle",
	"orange", "pepper", "quartz", "rocket", "summit", "timber",
}

var wordsB = []string{
	"anchor", "blossom", "copper", "drummer", "ember", "fountain", "glacier",
	"hammock", "ivory", "jungle", "kernel", "lagoon", "marble", "nectar",
	"obsidian", "prairie", "quiver", "raven", "saddle", "thunder",
}

// wordKB builds a KB with a strong A→B relationship between wordsA[i] and
// wordsB[i], and a backward "weak" relationship on the first pair only. Its
// table holds one row per pair.
func wordKB(t *testing.T) (*kbstats.Stats, *table.Table) {
	t.Helper()
	kb := rdf.New()
	add := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	lit := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.Lit(o)) }
	tbl := table.New("t", "A", "B")
	for i := range wordsA {
		a, b := wordsA[i], wordsB[i]
		add("r:"+a, rdf.IRIType, "ta")
		lit("r:"+a, rdf.IRILabel, a)
		add("r:"+b, rdf.IRIType, "tb")
		lit("r:"+b, rdf.IRILabel, b)
		add("r:"+a, "strong", "r:"+b)
		tbl.Append(a, b)
	}
	add("r:"+wordsB[0], "weak", "r:"+wordsA[0])
	return kbstats.New(kb), tbl
}

func TestConfidenceField(t *testing.T) {
	stats, tbl := wordKB(t)
	c := Generate(tbl, stats, Options{})
	pc := c.PairFor(0, 1)
	if pc == nil {
		t.Fatal("no forward pair")
	}
	if pc.Rels[0].Confidence < 0.95 {
		t.Fatalf("strong rel confidence = %f", pc.Rels[0].Confidence)
	}
}

// TestMinEdgeConfidenceFiltersPairs pins minEdgeConfidence (0.15): in a
// 50-row table the backward pair's only relationship covers k rows, each
// above the 5% support floor. At k = 7 (confidence 0.14) the pair is
// dropped; at k = 8 (0.16) it is kept.
func TestMinEdgeConfidenceFiltersPairs(t *testing.T) {
	stats, _ := wordKB(t)
	const n = 50
	for _, tc := range []struct {
		k    int
		keep bool
	}{{7, false}, {8, true}} {
		tbl := table.New("t", "A", "B")
		for r := 0; r < n; r++ {
			i := 0 // the rows of the first pair carry the backward fact
			if r >= tc.k {
				i = 1 + r%(len(wordsA)-1)
			}
			tbl.Append(wordsA[i], wordsB[i])
		}
		c := Generate(tbl, stats, Options{})
		if c.PairFor(0, 1) == nil {
			t.Fatalf("k=%d: the fully covered forward pair is missing", tc.k)
		}
		rev := c.PairFor(1, 0)
		if got := rev != nil; got != tc.keep {
			t.Errorf("k=%d (confidence %.2f): backward pair kept = %v, want %v", tc.k, float64(tc.k)/n, got, tc.keep)
		}
	}
}

// TestMinSupportFiltersTypes pins minSupport (0.05): in a 50-row column a
// type held by the entity of 2 rows (4%) is dropped, one held by the entity
// of 3 rows (6%) is kept.
func TestMinSupportFiltersTypes(t *testing.T) {
	kb := rdf.New()
	add := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	lit := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.Lit(o)) }
	for _, v := range wordsA {
		add("r:"+v, rdf.IRIType, "common")
		lit("r:"+v, rdf.IRILabel, v)
	}
	add("r:"+wordsA[0], rdf.IRIType, "rare")     // 2 of 50 rows
	add("r:"+wordsA[1], rdf.IRIType, "uncommon") // 3 of 50 rows
	tbl := table.New("t", "A")
	for r := 0; r < 50; r++ {
		switch {
		case r < 2:
			tbl.Append(wordsA[0])
		case r < 5:
			tbl.Append(wordsA[1])
		default:
			tbl.Append(wordsA[2+r%(len(wordsA)-2)])
		}
	}
	cc := Generate(tbl, kbstats.New(kb), Options{}).ColumnFor(0)
	if cc == nil {
		t.Fatal("no candidates at all")
	}
	got := map[string]bool{}
	for _, st := range cc.Types {
		got[kb.LabelOf(st.Type)] = true
	}
	if got["rare"] {
		t.Error("a type on 4% of the rows passed the 5% support floor")
	}
	if !got["uncommon"] || !got["common"] {
		t.Errorf("types on 6%% and 100%% of the rows were dropped: %v", got)
	}
}

// TestBandSuppressesDistantFuzzyMatches pins band (0.1): next to an exact
// match, a homonym scoring 0.911 (within the band) contributes its type and
// one scoring 0.877 (above the 0.7 threshold, outside the band) does not.
func TestBandSuppressesDistantFuzzyMatches(t *testing.T) {
	kb := rdf.New()
	add := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	lit := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.Lit(o)) }
	for _, e := range []struct{ label, typ string }{
		{"apple", "fruit"},
		{"apple pie", "dessert"},
		{"apple orchard", "farm"},
	} {
		add("r:"+e.label, rdf.IRIType, e.typ)
		lit("r:"+e.label, rdf.IRILabel, e.label)
	}
	scores := map[string]float64{}
	for _, m := range kb.MatchLabel("apple", similarity.DefaultThreshold) {
		scores[kb.LabelOf(m.Resource)] = m.Score
	}
	if s := scores["apple pie"]; s < 0.9 || s >= 1 {
		t.Fatalf("fixture: near homonym scores %v, want within 0.1 of the exact match", s)
	}
	if s := scores["apple orchard"]; s < similarity.DefaultThreshold || s >= 0.9 {
		t.Fatalf("fixture: far homonym scores %v, want between the threshold and the band", s)
	}

	tbl := table.New("t", "A")
	for r := 0; r < 20; r++ {
		tbl.Append("apple")
	}
	cc := Generate(tbl, kbstats.New(kb), Options{}).ColumnFor(0)
	if cc == nil {
		t.Fatal("no candidates")
	}
	got := map[string]bool{}
	for _, st := range cc.Types {
		got[kb.LabelOf(st.Type)] = true
	}
	if !got["fruit"] || !got["dessert"] {
		t.Errorf("the exact match and the in-band homonym should both type the column: %v", got)
	}
	if got["farm"] {
		t.Error("the band should suppress the homonym 0.12 below the exact match")
	}
}

// TestMatchExponentDampsFuzzyWeight pins matchExponent (4): with a one-char
// typo on every subject cell, each row's relationship weight is its match
// score to the fourth power, so the pair's confidence is their mean.
func TestMatchExponentDampsFuzzyWeight(t *testing.T) {
	stats, tbl := wordKB(t)
	kb := stats.KB()
	dirty := tbl.Clone()
	want := 0.0
	for i := range dirty.Rows {
		dirty.Rows[i][0] += "x"
		score := 0.0
		for _, m := range kb.MatchLabel(dirty.Rows[i][0], similarity.DefaultThreshold) {
			if m.Resource == kb.LookupTerm(rdf.IRI("r:"+wordsA[i])) {
				score = m.Score
			}
		}
		if score == 0 || score == 1 {
			t.Fatalf("fixture: %q scores %v against %q, want a fuzzy match", dirty.Rows[i][0], score, wordsA[i])
		}
		want += math.Pow(score, 4)
	}
	want /= float64(dirty.NumRows())
	c := Generate(dirty, stats, Options{})
	pc := c.PairFor(0, 1)
	if pc == nil {
		t.Fatal("typos should not kill the relationship")
	}
	if got := pc.Rels[0].Confidence; math.Abs(got-want) > 1e-9 {
		t.Fatalf("fuzzy-only confidence = %v, want the mean score^4 %v", got, want)
	}
}
