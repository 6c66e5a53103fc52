package kbstats_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/workload"
	"katara/internal/world"
)

// eager is the reference for kbstats.Stats: the statistics built by one
// scan of the whole KB up front — every class's sorted instance list and
// every property's sorted entity sets — with coherence as a sorted-list
// intersection and each property's maxima over the types of its entities.
// Stats computes each value on demand instead; every value must match this
// one bit for bit.
type eager struct {
	kb         *rdf.Store
	entities   []rdf.ID
	numTypes   int
	properties []rdf.ID
	subEnt     map[rdf.ID][]rdf.ID
	objEnt     map[rdf.ID][]rdf.ID
	facts      map[rdf.ID]int
	entOfType  map[rdf.ID][]rdf.ID
}

func newEager(kb *rdf.Store) *eager {
	t := &eager{
		kb:        kb,
		subEnt:    make(map[rdf.ID][]rdf.ID),
		objEnt:    make(map[rdf.ID][]rdf.ID),
		facts:     make(map[rdf.ID]int),
		entOfType: make(map[rdf.ID][]rdf.ID),
	}
	entitySet := make(map[rdf.ID]bool)
	for _, e := range kb.SubjectsWithPredicate(kb.TypeID) {
		if !kb.IsLiteral(e) {
			t.entities = append(t.entities, e)
			entitySet[e] = true
		}
	}
	classes := kb.Classes()
	t.numTypes = len(classes)
	for _, c := range classes {
		t.entOfType[c] = kb.InstancesOf(c)
	}
	vocab := map[rdf.ID]bool{
		kb.TypeID: true, kb.LabelID: true,
		kb.SubClassOfID: true, kb.SubPropertyOfID: true,
	}
	for _, p := range kb.Predicates() {
		if vocab[p] {
			continue
		}
		t.properties = append(t.properties, p)
		subSet := map[rdf.ID]bool{}
		objSet := map[rdf.ID]bool{}
		n := 0
		for _, subj := range kb.SubjectsWithPredicate(p) {
			objs := kb.Objects(subj, p)
			n += len(objs)
			if entitySet[subj] {
				subSet[subj] = true
			}
			for _, o := range objs {
				if entitySet[o] {
					objSet[o] = true
				}
			}
		}
		t.facts[p] = n
		t.subEnt[p] = sortedSet(subSet)
		t.objEnt[p] = sortedSet(objSet)
	}
	return t
}

func sortedSet(set map[rdf.ID]bool) []rdf.ID {
	out := make([]rdf.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (s *eager) NumEntities() int            { return len(s.entities) }
func (s *eager) NumTypes() int               { return s.numTypes }
func (s *eager) Properties() []rdf.ID        { return s.properties }
func (s *eager) NumFacts(p rdf.ID) int       { return s.facts[p] }
func (s *eager) EntitiesOfType(t rdf.ID) int { return len(s.entOfType[t]) }
func (s *eager) SubSC(t, p rdf.ID) float64   { return s.coherence(t, s.subEnt[p]) }
func (s *eager) ObjSC(t, p rdf.ID) float64   { return s.coherence(t, s.objEnt[p]) }
func (s *eager) MaxSubSC(p rdf.ID) float64 {
	return s.best(s.subEnt[p], func(t rdf.ID) float64 { return s.SubSC(t, p) })
}
func (s *eager) MaxObjSC(p rdf.ID) float64 {
	return s.best(s.objEnt[p], func(t rdf.ID) float64 { return s.ObjSC(t, p) })
}
func (s *eager) TF(t rdf.ID) float64            { return invLog(s.EntitiesOfType(t)) }
func (s *eager) RelTF(p rdf.ID) float64         { return invLog(s.NumFacts(p)) }
func (s *eager) IDF(numCellTypes int) float64   { return logRatio(s.numTypes, numCellTypes) }
func (s *eager) RelIDF(numPairRels int) float64 { return logRatio(len(s.properties), numPairRels) }

func (s *eager) coherence(t rdf.ID, side []rdf.ID) float64 {
	n := float64(len(s.entities))
	if n == 0 || len(side) == 0 {
		return 0
	}
	entT := s.entOfType[t]
	if len(entT) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(entT) && j < len(side); {
		switch {
		case entT[i] < side[j]:
			i++
		case entT[i] > side[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	if inter == 0 {
		return 0
	}
	pJoint := float64(inter) / n
	pT := float64(len(entT)) / n
	pP := float64(len(side)) / n
	if pJoint >= 1 {
		return 1
	}
	pmi := math.Log(pJoint / (pP * pT))
	npmi := pmi / (-math.Log(pJoint))
	if npmi > 1 {
		npmi = 1
	}
	if npmi < -1 {
		npmi = -1
	}
	return (npmi + 1) / 2
}

// best is the maximum coherence over the types of side's entities; every
// other type scores 0.
func (s *eager) best(side []rdf.ID, sc func(t rdf.ID) float64) float64 {
	seen := map[rdf.ID]bool{}
	max := 0.0
	for _, e := range side {
		for _, t := range s.kb.AllTypes(e) {
			if seen[t] {
				continue
			}
			seen[t] = true
			if v := sc(t); v > max {
				max = v
			}
		}
	}
	return max
}

func invLog(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 1 / math.Log(1+float64(n))
}

func logRatio(total, n int) float64 {
	if n <= 0 || total == 0 {
		return 0
	}
	v := math.Log(float64(total) / float64(n))
	if v < 0 {
		return 0
	}
	return v
}

// TestStatsMatchEagerReference compares every accessor of Stats with the
// eager reference over every class and property, on the Yago- and
// DBpedia-shaped KBs at several seeds — as a snapshot's source, an
// unwritten share, a written share and a share of the written share — and
// on random KBs whose class hierarchies have cycles.
func TestStatsMatchEagerReference(t *testing.T) {
	check := func(t *testing.T, name string, kb *rdf.Store) {
		t.Helper()
		want := statsView(newEager(kb), kb)
		if got := statsView(kbstats.New(kb), kb); !reflect.DeepEqual(got, want) {
			for i := range want {
				if i < len(got) && got[i] != want[i] {
					t.Fatalf("%s: %s, reference %s", name, got[i], want[i])
				}
			}
			t.Fatalf("%s: Stats differ from the eager reference", name)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		w := world.New(seed, world.Config{})
		for _, kb := range []*workload.KB{workload.YagoLike(w, seed), workload.DBpediaLike(w, seed)} {
			t.Run(fmt.Sprintf("%s/seed%d", kb.Name, seed), func(t *testing.T) {
				src := kb.Store
				share, written := src.CloneExact(), src.CloneExact()
				check(t, "source", src)
				check(t, "unwritten share", share)
				writeStats(written)
				check(t, "written share", written)
				check(t, "share of the written share", written.CloneExact())
			})
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		kb := randomKB(rand.New(rand.NewSource(seed)))
		check(t, fmt.Sprintf("random KB %d", seed), kb)
		check(t, fmt.Sprintf("share of random KB %d", seed), kb.CloneExact())
	}
}

// writeStats makes writes that move the statistics: a new instance of the
// last class, a new subclass of the first one with an instance, one more
// type for an existing entity, and facts of the first data property from a
// new and from an existing subject. On a share, the existing keys' entries
// are then in its own layer and in its base alike.
func writeStats(kb *rdf.Store) {
	classes := kb.Classes()
	kb.Add(kb.Res("urn:test:newEntity"), kb.TypeID, classes[len(classes)-1])
	kb.Add(kb.Res("urn:test:newClass"), kb.SubClassOfID, classes[0])
	kb.Add(kb.Res("urn:test:member"), kb.TypeID, kb.Res("urn:test:newClass"))
	kb.Add(kb.SubjectsWithPredicate(kb.TypeID)[0], kb.TypeID, kb.Res("urn:test:newClass"))
	for _, p := range kb.Predicates() {
		if p != kb.TypeID && p != kb.LabelID && p != kb.SubClassOfID && p != kb.SubPropertyOfID {
			kb.Add(kb.Res("urn:test:member"), p, kb.Res("urn:test:newEntity"))
			kb.Add(kb.SubjectsWithPredicate(p)[0], p, kb.Res("urn:test:newEntity"))
			return
		}
	}
}

// randomKB builds a small KB whose class hierarchy is random, cycles and
// self-loops included, with typed entities, untyped resources, literals,
// and facts between them.
func randomKB(rng *rand.Rand) *rdf.Store {
	kb := rdf.New()
	classes := make([]rdf.ID, 3+rng.Intn(6))
	for i := range classes {
		classes[i] = kb.Res(fmt.Sprintf("c%d", i))
	}
	for i := 0; i < len(classes)+rng.Intn(len(classes)); i++ {
		kb.Add(classes[rng.Intn(len(classes))], kb.SubClassOfID, classes[rng.Intn(len(classes))])
	}
	ents := make([]rdf.ID, 10+rng.Intn(30))
	for i := range ents {
		ents[i] = kb.Res(fmt.Sprintf("e%d", i))
		for j := rng.Intn(3); j > 0; j-- { // some entities stay untyped
			kb.Add(ents[i], kb.TypeID, classes[rng.Intn(len(classes))])
		}
	}
	props := make([]rdf.ID, 1+rng.Intn(4))
	for i := range props {
		props[i] = kb.Res(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 3*len(ents); i++ {
		obj := ents[rng.Intn(len(ents))]
		if rng.Intn(4) == 0 {
			obj = kb.Literal(fmt.Sprint(rng.Intn(5)))
		}
		kb.Add(ents[rng.Intn(len(ents))], props[rng.Intn(len(props))], obj)
	}
	return kb
}
