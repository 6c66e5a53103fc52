package propcheck

import (
	"bytes"
	"math/rand"
	"testing"

	"katara/internal/rdf"
	"katara/internal/workload"
)

// sparse returns sc over a low-coverage copy of its KB: a fifth of the
// entities vanish (the crowd confirms them and enrichment mints labelled
// resources for them) and a third of the surviving type and fact triples
// are dropped (enrichment adds them back to resources other rows already
// resolve to). Classes and properties keep all their triples.
func sparse(sc *Scenario) *Scenario {
	kb := sc.KB
	src := kb.Store
	schema := map[rdf.ID]bool{}
	for id := range kb.TypeCheck {
		schema[id] = true
	}
	for id := range kb.TypeName {
		schema[id] = true
	}
	for id := range kb.PropName {
		schema[id] = true
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	gone := map[rdf.ID]bool{}
	seen := map[rdf.ID]bool{}
	st := rdf.New()
	src.ForEachTriple(func(t rdf.Triple) {
		keep := schema[t.S] || t.P == src.SubClassOfID || t.P == src.SubPropertyOfID
		if !keep {
			if !seen[t.S] {
				seen[t.S] = true
				gone[t.S] = rng.Float64() < 0.2
			}
			if gone[t.S] || (t.P != src.LabelID && rng.Float64() < 0.35) {
				return
			}
		}
		st.AddFact(src.Term(t.S), src.Term(t.P), src.Term(t.O))
	})
	remap := func(id rdf.ID) rdf.ID { return st.Intern(src.Term(id)) }
	out := &workload.KB{
		Name:      kb.Name,
		Store:     st,
		TypeID:    map[string]rdf.ID{},
		PropID:    map[string]rdf.ID{},
		TypeName:  map[rdf.ID]string{},
		PropName:  map[rdf.ID]string{},
		TypeCheck: map[rdf.ID]func(string) bool{},
	}
	for sem, id := range kb.TypeID {
		out.TypeID[sem] = remap(id)
	}
	for sem, id := range kb.PropID {
		out.PropID[sem] = remap(id)
	}
	for id, name := range kb.TypeName {
		out.TypeName[remap(id)] = name
	}
	for id, name := range kb.PropName {
		out.PropName[remap(id)] = name
	}
	for id, check := range kb.TypeCheck {
		out.TypeCheck[remap(id)] = check
	}
	cp := *sc
	cp.KB = out
	return &cp
}

// TestFootprintDifferential compares dedup-on at parallelism 4 — coverage
// precomputed per signature on the pristine KB, kept across enrichment by
// its footprint, verdicts replayed for duplicate rows — against dedup-off
// at parallelism 1, where every row is evaluated fresh and decided on its
// own, on CanonicalSemantic. It runs on the scenarios most likely to break
// the footprint rule: KBs poisoned with InjectLabelCollisions decoys, whose
// near-duplicate labels sit inside the match band of real values, and
// low-coverage KBs where enrichment adds types, edges and minted labels
// throughout the pass. At least one sparse scenario must actually be
// enrichment-heavy, or the test proves nothing.
func TestFootprintDifferential(t *testing.T) {
	var cases []*Scenario
	for seed := int64(1); seed <= 40 && len(cases) < 4; seed++ {
		if sc := Generate(seed); sc.Collisions > 0 {
			cases = append(cases, sc)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		cases = append(cases, sparse(Generate(seed)))
	}
	mostFacts := 0
	for i, sc := range cases {
		off, _, offErr := sc.Run(RunConfig{Workers: 1, DedupOff: true})
		on, _, onErr := sc.Run(RunConfig{Workers: 4})
		if err := sameOutcome(off, offErr, on, onErr); err != nil {
			t.Fatalf("seed %d (case %d): %v", sc.Seed, i, err)
		}
		if on == nil {
			continue // both failed alike
		}
		if w, g := CanonicalSemantic(off), CanonicalSemantic(on); !bytes.Equal(w, g) {
			t.Fatalf("seed %d (case %d, %s/%s, %d collisions): dedup-on workers=4 differs from dedup-off workers=1\n%s",
				sc.Seed, i, sc.Kind, sc.KBName, sc.Collisions, canonicalDiff(w, g))
		}
		t.Logf("seed %d (case %d, %s/%s, %d collisions): %d rows, %d new facts",
			sc.Seed, i, sc.Kind, sc.KBName, sc.Collisions, sc.Dirty.NumRows(), len(on.NewFacts))
		mostFacts = max(mostFacts, len(on.NewFacts))
	}
	if mostFacts < 10 {
		t.Fatalf("the most enriching scenario minted %d facts; the sparse KBs are not enrichment-heavy", mostFacts)
	}
}
