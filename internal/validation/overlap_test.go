package validation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"katara/internal/rdf"
)

// referenceOverlap is the Jaccard overlap of two candidates' extensions by
// a merge of their sorted, deduplicated lists: rdf.Store.InstancesOf for a
// type, SubjectsWithPredicate for a relationship. It is the oracle the
// bitset overlap is checked against.
func referenceOverlap(kb *rdf.Store, a, b rdf.ID, isPair bool) float64 {
	ext := kb.InstancesOf
	if isPair {
		ext = kb.SubjectsWithPredicate
	}
	setA, setB := ext(a), ext(b)
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(setA) && j < len(setB) {
		switch {
		case setA[i] < setB[j]:
			union++
			i++
		case setA[i] > setB[j]:
			union++
			j++
		default:
			inter++
			union++
			i++
			j++
		}
	}
	union += (len(setA) - i) + (len(setB) - j)
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// referenceDifficulty is Validator.difficulty over referenceOverlap.
func referenceDifficulty(kb *rdf.Store, domain []rdf.ID, isPair bool, kt int) float64 {
	if len(domain) < 2 {
		return 0
	}
	maxOverlap := 0.0
	for i := range domain {
		for j := i + 1; j < len(domain); j++ {
			maxOverlap = max(maxOverlap, referenceOverlap(kb, domain[i], domain[j], isPair))
		}
	}
	return math.Pow(maxOverlap, float64(kt))
}

// TestDifficultyMatchesSortedMerge checks the bitset overlap against the
// sorted-merge reference, ==, on random KBs: classes in subclass chains
// (an extension takes in every subclass's instances), entities typed with
// several classes and subjects of several properties (shared instances),
// and a copy-on-write share whose writes leave some keys in its own layer
// and the rest in its frozen base — including type lists and property
// subjects that now come from both.
func TestDifficultyMatchesSortedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 20; round++ {
		kb := rdf.New()
		var classes, props, ents []rdf.ID
		for i := 0; i < 12; i++ {
			c := kb.Res(fmt.Sprintf("C%d", i))
			if i > 0 && rng.Intn(3) > 0 {
				kb.Add(c, kb.SubClassOfID, classes[rng.Intn(i)])
			}
			classes = append(classes, c)
		}
		for i := 0; i < 6; i++ {
			props = append(props, kb.Res(fmt.Sprintf("p%d", i)))
		}
		populate := func(kb *rdf.Store, from, to int) {
			for i := from; i < to; i++ {
				e := kb.Res(fmt.Sprintf("e%d", i))
				if i >= len(ents) {
					ents = append(ents, e)
				}
				for n := rng.Intn(3); n >= 0; n-- {
					kb.Add(e, kb.TypeID, classes[rng.Intn(len(classes))])
				}
				for n := rng.Intn(3); n > 0; n-- {
					kb.Add(e, props[rng.Intn(len(props))], ents[rng.Intn(len(ents))])
				}
			}
		}
		n := 50 + rng.Intn(250)
		populate(kb, 0, n)
		share := kb.CloneExact()
		// The share re-types and relates some old entities and adds new
		// ones: their keys move to its own layer, the rest stay in base.
		for i := 0; i < 20; i++ {
			e := ents[rng.Intn(len(ents))]
			share.Add(e, share.TypeID, classes[rng.Intn(len(classes))])
			share.Add(e, props[rng.Intn(len(props))], ents[rng.Intn(len(ents))])
		}
		populate(share, n, n+30)
		for _, store := range []*rdf.Store{kb, share} {
			v := &Validator{KB: store, Rng: rand.New(rand.NewSource(1))}
			v.defaults()
			for trial := 0; trial < 30; trial++ {
				isPair := trial%2 == 1
				pool := classes
				if isPair {
					pool = props
				}
				domain := make([]rdf.ID, 2+rng.Intn(3))
				for i := range domain {
					domain[i] = pool[rng.Intn(len(pool))]
				}
				got := v.difficulty(domain, Variable{IsPair: isPair})
				if want := referenceDifficulty(store, domain, isPair, v.TuplesPerQuestion); got != want {
					t.Fatalf("round %d, domain %v (pair %v): difficulty %v, sorted-merge reference %v", round, domain, isPair, got, want)
				}
			}
		}
	}
}
