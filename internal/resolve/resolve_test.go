package resolve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"katara/internal/rdf"
	"katara/internal/similarity"
)

// Len returns the number of memoized values.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

func newKB(t *testing.T) *rdf.Store {
	t.Helper()
	kb := rdf.New()
	for _, e := range []struct{ iri, label string }{
		{"ex:Rome", "Rome"},
		{"ex:Roma", "Roma"},
		{"ex:Madrid", "Madrid"},
		{"ex:Pretoria", "Pretoria"},
		{"ex:SouthAfrica", "South Africa"},
		{"ex:SouthAfrica", "S. Africa"}, // second label, same resource
	} {
		kb.AddFact(rdf.IRI(e.iri), rdf.IRI(rdf.IRILabel), rdf.Lit(e.label))
	}
	return kb
}

func TestResolveMatchesDirectLookup(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := []string{
		"Rome", "rome", "ROME", "Roma", "Pretorria", "S. Africa",
		"s africa", "Madrid", "nowhere", "", "  Rome  ",
	}
	for _, q := range queries {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		got := c.Resolve(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Resolve(%q) = %v, direct MatchLabel = %v", q, got, want)
		}
		// Second call comes from the memo and must be identical.
		if again := c.Resolve(q); !reflect.DeepEqual(again, want) {
			t.Errorf("memoized Resolve(%q) = %v, want %v", q, again, want)
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	c.Resolve("Rome")
	c.Resolve("Madrid")
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("after 2 distinct resolves: hits=%d misses=%d, want 0/2", hits, misses)
	}
	c.Resolve("Rome")
	c.Resolve("ROME")     // same normalized key: memo hit
	c.Resolve("  rome  ") // likewise
	if hits, misses := c.Stats(); hits != 3 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 3/2", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestInvalidationAfterLabelAdd(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	if got := c.Resolve("Lisbon"); len(got) != 0 {
		t.Fatalf("Lisbon should not resolve yet: %v", got)
	}
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRILabel), rdf.Lit("Lisbon"))
	want := kb.MatchLabel("Lisbon", similarity.DefaultThreshold)
	if len(want) == 0 {
		t.Fatal("direct lookup should now find Lisbon")
	}
	if got := c.Resolve("Lisbon"); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-enrichment Resolve = %v, want %v", got, want)
	}
	// Non-label triples must NOT flush the memo.
	before := c.Len()
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRIType), rdf.IRI("ex:City"))
	c.Resolve("Lisbon")
	if c.Len() != before {
		t.Fatalf("non-label Add flushed the memo: Len %d -> %d", before, c.Len())
	}
}

func TestThresholdBypass(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	// A different threshold must fall through to the store uncached and
	// return exactly the direct answer.
	for _, th := range []float64{0.3, 0.9, 1.0} {
		want := kb.MatchLabel("Roma", th)
		if got := c.MatchLabel("Roma", th); !reflect.DeepEqual(got, want) {
			t.Errorf("MatchLabel(Roma, %.1f) = %v, want %v", th, got, want)
		}
	}
	if _, misses := c.Stats(); misses != 0 {
		t.Fatalf("bypass lookups must not touch the memo, misses=%d", misses)
	}
	// At the cache's own threshold MatchLabel memoizes.
	c.MatchLabel("Roma", similarity.DefaultThreshold)
	if _, misses := c.Stats(); misses != 1 {
		t.Fatalf("cache-threshold MatchLabel should memoize, misses=%d", misses)
	}
}

func TestConcurrentResolve(t *testing.T) {
	kb := newKB(t)
	for i := 0; i < 64; i++ {
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:e%d", i)), rdf.IRI(rdf.IRILabel),
			rdf.Lit(fmt.Sprintf("entity %d", i)))
	}
	c := New(kb, similarity.DefaultThreshold)
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("entity %d", i%16) // heavy key overlap
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				q := queries[(w*50+r)%len(queries)]
				got := c.Resolve(q)
				want := kb.MatchLabel(q, similarity.DefaultThreshold)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Resolve(%q) = %v, want %v", q, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := c.Stats(); hits+misses != 8*50 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*50)
	}
}

func TestSourceInterface(t *testing.T) {
	kb := newKB(t)
	var s Source = kb
	var c Source = New(kb, similarity.DefaultThreshold)
	want := s.MatchLabel("Rome", similarity.DefaultThreshold)
	if got := c.MatchLabel("Rome", similarity.DefaultThreshold); !reflect.DeepEqual(got, want) {
		t.Fatalf("Source implementations disagree: %v vs %v", got, want)
	}
}

func TestPerLabelInvalidationKeepsUnrelatedEntries(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	// Warm the memo with values unrelated to the label we are about to add.
	warm := []string{"Rome", "Madrid", "Pretoria", "South Africa"}
	before := make([][]rdf.LabelMatch, len(warm))
	for i, q := range warm {
		before[i] = c.Resolve(q)
	}
	hits0, misses0 := c.Stats()
	// An unrelated enrichment label: shares no similarity with the warm set.
	kb.AddFact(rdf.IRI("ex:Qux"), rdf.IRI(rdf.IRILabel), rdf.Lit("zzyqwv"))
	for i, q := range warm {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		got := c.Resolve(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-enrichment Resolve(%q) = %v, want %v", q, got, want)
		}
		// No new label matches, so the entry keeps its slice.
		if len(got) == 0 || &got[0] != &before[i][0] {
			t.Fatalf("Resolve(%q) after an unrelated label returned a new slice", q)
		}
	}
	// Each re-resolve is a catch-up, which counts as a hit: an unrelated
	// label never makes a memoised value miss again.
	hits1, misses1 := c.Stats()
	if hits1-hits0 != int64(len(warm)) || misses1 != misses0 {
		t.Fatalf("re-resolve after an unrelated label: %d hits, %d misses, want %d hits, 0 misses",
			hits1-hits0, misses1-misses0, len(warm))
	}
}

// TestCatchUpGainsNewMatches: a memoised answer a new label can now match
// (a fuzzy miss, and the label's own normalisation) gains the match on its
// next hit, without missing again, and keeps the caught-up slice after.
func TestCatchUpGainsNewMatches(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	// A fuzzy miss that the upcoming label will turn into a hit.
	if got := c.Resolve("Lisbonne"); len(got) != 0 {
		t.Fatalf("Lisbonne should not resolve yet: %v", got)
	}
	// And an exact-key entry for the label's own normalisation.
	if got := c.Resolve("Lisbon"); len(got) != 0 {
		t.Fatalf("Lisbon should not resolve yet: %v", got)
	}
	c.Resolve("Madrid") // unrelated
	_, misses0 := c.Stats()
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRILabel), rdf.Lit("Lisbon"))
	for _, q := range []string{"Lisbon", "Lisbonne", "Madrid"} {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		got := c.Resolve(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-enrichment Resolve(%q) = %v, want %v", q, got, want)
		}
		if again := c.Resolve(q); len(again) > 0 && &again[0] != &got[0] {
			t.Fatalf("Resolve(%q) after its catch-up returned a new slice", q)
		}
	}
	if got := c.Resolve("Lisbonne"); len(got) == 0 {
		t.Fatal("stale miss survived: Lisbonne must now fuzzily match Lisbon")
	}
	if _, misses := c.Stats(); misses != misses0 {
		t.Fatalf("catch-ups must count as hits: misses %d -> %d", misses0, misses)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3: nothing is evicted", c.Len())
	}
}

// TestCatchUpReadsFrozenBase: labels added after an entry was stored can
// sit in a frozen base. The store gains labels in its own layer, shares it
// through CloneExact, and then writes, which freezes that layer as its
// base: the stale entries' generation now falls inside the base, and the
// catch-up must read the base's new labels as well as the own layer's.
func TestCatchUpReadsFrozenBase(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := []string{"Lisbon", "Lisbonne", "Porto", "Oporto", "Rome", "nowhere"}
	for _, q := range queries {
		c.Resolve(q)
	}
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRILabel), rdf.Lit("Lisbon"))
	kb.AddFact(rdf.IRI("ex:Porto"), rdf.IRI(rdf.IRILabel), rdf.Lit("Porto"))
	kb.CloneExact()
	kb.AddFact(rdf.IRI("ex:Oporto"), rdf.IRI(rdf.IRILabel), rdf.Lit("Oporto"))
	_, misses0 := c.Stats()
	for _, q := range queries {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("Resolve(%q) after labels landed in the frozen base = %v, want %v", q, got, want)
		}
	}
	if got := c.Resolve("Lisbon"); len(got) == 0 {
		t.Fatal("Lisbon's label is in the frozen base; the catch-up must find it")
	}
	if _, misses := c.Stats(); misses != misses0 {
		t.Fatalf("catch-ups must count as hits: misses %d -> %d", misses0, misses)
	}
}

// TestPerLabelInvalidationDifferential pins the correctness contract: after
// ANY sequence of label additions, every cached answer equals the direct
// store lookup, and no memoised value misses again.
func TestPerLabelInvalidationDifferential(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := []string{
		"Rome", "Roma", "rome", "Pretorria", "S. Africa", "Madrid",
		"Lisbon", "Lisbonne", "Porto", "zzz", "", "New Dehli", "entity 3",
	}
	adds := []string{"Lisbon", "Porto", "New Delhi", "entity 3", "Rome II", "unrelated qwx"}
	for _, q := range queries {
		c.Resolve(q)
	}
	_, misses0 := c.Stats()
	for i, label := range adds {
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:new%d", i)), rdf.IRI(rdf.IRILabel), rdf.Lit(label))
		for _, q := range queries {
			want := kb.MatchLabel(q, similarity.DefaultThreshold)
			if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("after adding %q: Resolve(%q) = %v, direct = %v", label, q, got, want)
			}
		}
	}
	if _, misses := c.Stats(); misses != misses0 {
		t.Fatalf("label additions made memoised values miss again: misses %d -> %d", misses0, misses)
	}
}

// TestCatchUpAfterLabelBurst: an entry stored before a burst of 9,000
// labels catches up from all of them in one step, exactly.
func TestCatchUpAfterLabelBurst(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := []string{"Rome", "Madrid", "bulk label 4242", "bulk label 17"}
	for _, q := range queries {
		c.Resolve(q)
	}
	_, misses0 := c.Stats()
	for i := 0; i < 9000; i++ {
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:bulk%d", i)), rdf.IRI(rdf.IRILabel),
			rdf.Lit(fmt.Sprintf("bulk label %d", i)))
	}
	for _, q := range queries {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("after the burst Resolve(%q) = %v, want %v", q, got, want)
		}
	}
	if got := c.Resolve("bulk label 4242"); len(got) == 0 {
		t.Fatal("bulk label 4242 must resolve after the burst")
	}
	if _, misses := c.Stats(); misses != misses0 {
		t.Fatalf("catch-ups must count as hits: misses %d -> %d", misses0, misses)
	}
}

// TestConcurrentCatchUp races resolves, catch-ups included, of the same
// keys (run under -race): each round adds a label in a single-writer
// window, then eight goroutines resolve. Every answer must equal the direct
// lookup, and within a round all readers of a key must get one canonical
// slice, whichever of them caught the entry up or missed it first.
func TestConcurrentCatchUp(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = fmt.Sprintf("city %d", i)
	}
	for round := 0; round < 8; round++ {
		// Single-writer window: enrich the KB while resolvers are quiescent.
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:c%d", round)), rdf.IRI(rdf.IRILabel),
			rdf.Lit(fmt.Sprintf("city %d", round)))
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			canonical = map[string]*rdf.LabelMatch{}
		)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < 25; r++ {
					q := queries[(w*25+r)%len(queries)]
					got := c.Resolve(q)
					want := kb.MatchLabel(q, similarity.DefaultThreshold)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("round %d: Resolve(%q) = %v, want %v", round, q, got, want)
						return
					}
					if len(got) == 0 {
						continue
					}
					mu.Lock()
					if first, ok := canonical[q]; !ok {
						canonical[q] = &got[0]
					} else if first != &got[0] {
						t.Errorf("round %d: Resolve(%q) returned two slices", round, q)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
}
