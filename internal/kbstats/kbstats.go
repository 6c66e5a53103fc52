// Package kbstats computes the knowledge-base statistics KATARA's scoring
// model needs (§4.1–4.2): entity/type/property counts for tf-idf, and the
// PMI-based semantic-coherence scores subSC(T,P) / objSC(T,P) between types
// and relationships.
//
// The paper computes its statistics offline, once per KB. Here the tables
// derived from the KB alone — entities, properties, fact counts, each
// property's subject and object entities and every class's instances — are
// built by one scan, and once per rdf snapshot: every CloneExact share of
// a KB that has not been written since reuses the first share's tables
// (rdf.Store.Derived), so the jobs of a server built on one pristine KB
// pay for that scan once. Coherence pairs are memoised per Stats on
// demand, along with the per-relationship maxima the rank-join bound needs.
package kbstats

import (
	"math"
	"slices"

	"katara/internal/rdf"
)

// Stats caches derived statistics for one KB. Everything but the coherence
// memo is computed by New, so concurrent readers (discovery's workers) may
// share a Stats once its store's hierarchy closures are warm; the coherence
// accessors write the memo and belong to one goroutine, like the store's
// writes.
type Stats struct {
	kb *rdf.Store
	*tables

	subSC, objSC      map[cohKey]float64
	maxSub, maxObj    map[rdf.ID]float64
	maxCohComputedFor map[rdf.ID]bool
}

// tables are the statistics that depend on the KB alone. They are shared by
// every Stats of one rdf snapshot and never written after buildTables.
type tables struct {
	entities   []rdf.ID            // all typed resources, sorted
	numTypes   int                 // |Classes|
	properties []rdf.ID            // data properties (relationship candidates)
	subEnt     map[rdf.ID][]rdf.ID // property -> sorted entity subjects
	objEnt     map[rdf.ID][]rdf.ID // property -> sorted entity objects
	facts      map[rdf.ID]int      // property -> #triples
	entOfType  map[rdf.ID][]rdf.ID // class -> sorted instances (with subclasses)
}

type cohKey struct{ t, p rdf.ID }

// tablesKey keys the tables among the values derived from an rdf snapshot.
type tablesKey struct{}

// New returns kb's statistics. On a store that belongs to an rdf snapshot
// (see rdf.Store.Derived) the KB tables are the snapshot's, built by the
// first New on any of its stores; otherwise New scans kb.
func New(kb *rdf.Store) *Stats {
	return &Stats{
		kb:                kb,
		tables:            kb.Derived(tablesKey{}, func(kb *rdf.Store) any { return buildTables(kb) }).(*tables),
		subSC:             make(map[cohKey]float64),
		objSC:             make(map[cohKey]float64),
		maxSub:            make(map[rdf.ID]float64),
		maxObj:            make(map[rdf.ID]float64),
		maxCohComputedFor: make(map[rdf.ID]bool),
	}
}

// buildTables scans kb once for its tables.
func buildTables(kb *rdf.Store) *tables {
	t := &tables{
		subEnt:    make(map[rdf.ID][]rdf.ID),
		objEnt:    make(map[rdf.ID][]rdf.ID),
		facts:     make(map[rdf.ID]int),
		entOfType: make(map[rdf.ID][]rdf.ID),
	}
	// Entities: resources with at least one asserted type.
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
	// Data properties: everything except the RDFS vocabulary.
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
		t.subEnt[p] = setToSorted(subSet)
		t.objEnt[p] = setToSorted(objSet)
	}
	return t
}

func setToSorted(set map[rdf.ID]bool) []rdf.ID {
	out := make([]rdf.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// KB returns the underlying store.
func (s *Stats) KB() *rdf.Store { return s.kb }

// NumEntities returns N, the total number of typed entities.
func (s *Stats) NumEntities() int { return len(s.entities) }

// NumTypes returns the number of classes in the KB (used by idf).
func (s *Stats) NumTypes() int { return s.numTypes }

// Properties returns the relationship candidates (non-vocabulary predicates).
func (s *Stats) Properties() []rdf.ID { return s.properties }

// NumFacts returns the number of triples with property p.
func (s *Stats) NumFacts(p rdf.ID) int { return s.facts[p] }

// EntitiesOfType returns |ENT(T)|: instances of T including subclasses.
func (s *Stats) EntitiesOfType(t rdf.ID) int {
	return len(s.instancesOf(t))
}

// instancesOf returns ENT(t), sorted; nil for a resource that is not a
// class, which has no instances.
func (s *Stats) instancesOf(t rdf.ID) []rdf.ID { return s.entOfType[t] }

// SubSC returns the subject semantic coherence of type t for property p:
//
//	subSC(T,P) = (NPMI_sub(T,P) + 1) / 2  ∈ [0,1]
//
// with NPMI_sub(T,P) = PMI_sub(T,P) / (−log Pr_sub(P∩T)). The paper's
// formula prints the denominator as −Pr_sub(P∩T); we follow the cited
// Bouma (2009) normalisation, which requires the log for NPMI ∈ [−1,1].
func (s *Stats) SubSC(t, p rdf.ID) float64 {
	k := cohKey{t, p}
	if v, ok := s.subSC[k]; ok {
		return v
	}
	v := s.coherence(t, s.subEnt[p])
	s.subSC[k] = v
	return v
}

// ObjSC returns the object semantic coherence of type t for property p.
func (s *Stats) ObjSC(t, p rdf.ID) float64 {
	k := cohKey{t, p}
	if v, ok := s.objSC[k]; ok {
		return v
	}
	v := s.coherence(t, s.objEnt[p])
	s.objSC[k] = v
	return v
}

// coherence computes (NPMI+1)/2 between ENT(t) and the given property-side
// entity set.
func (s *Stats) coherence(t rdf.ID, side []rdf.ID) float64 {
	n := float64(len(s.entities))
	if n == 0 || len(side) == 0 {
		return 0
	}
	entT := s.instancesOf(t)
	if len(entT) == 0 {
		return 0
	}
	inter := sortedIntersectionSize(entT, side)
	if inter == 0 {
		return 0 // NPMI = -1 ⇒ SC = 0
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

func sortedIntersectionSize(a, b []rdf.ID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// MaxSubSC returns max over all types T of subSC(T,p), used in the
// rank-join upper bound (§4.3: "for each relationship, we also keep the
// maximum coherence score it can achieve with any type").
func (s *Stats) MaxSubSC(p rdf.ID) float64 {
	s.ensureMaxCoherence(p)
	return s.maxSub[p]
}

// MaxObjSC returns max over all types T of objSC(T,p).
func (s *Stats) MaxObjSC(p rdf.ID) float64 {
	s.ensureMaxCoherence(p)
	return s.maxObj[p]
}

func (s *Stats) ensureMaxCoherence(p rdf.ID) {
	if s.maxCohComputedFor[p] {
		return
	}
	s.maxCohComputedFor[p] = true
	// Only types of entities incident to p can score above the empty-
	// intersection floor of 0, so restrict the scan to those.
	best := func(side []rdf.ID, sc func(t, p rdf.ID) float64) float64 {
		seen := map[rdf.ID]bool{}
		max := 0.0
		for _, e := range side {
			for _, t := range s.kb.AllTypes(e) {
				if seen[t] {
					continue
				}
				seen[t] = true
				if v := sc(t, p); v > max {
					max = v
				}
			}
		}
		return max
	}
	s.maxSub[p] = best(s.subEnt[p], s.SubSC)
	s.maxObj[p] = best(s.objEnt[p], s.ObjSC)
}

// TF returns the term frequency of one cell for type t per §4.1:
// 1/log(#entities of T) if the cell's resource has type t, else 0.
// The caller supplies whether the cell is of the type; this helper only
// provides the magnitude.
func (s *Stats) TF(t rdf.ID) float64 {
	n := s.EntitiesOfType(t)
	if n <= 0 {
		return 0
	}
	// log(1+n) keeps single-instance types finite while preserving the
	// "rarer type ⇒ larger tf" ordering of the paper.
	return 1 / math.Log(1+float64(n))
}

// IDF returns the inverse document frequency of a cell that belongs to
// numCellTypes types: log(#Types in K / #Types of cell), or 0 if the cell
// is untyped (§4.1).
func (s *Stats) IDF(numCellTypes int) float64 {
	if numCellTypes <= 0 || s.numTypes == 0 {
		return 0
	}
	v := math.Log(float64(s.numTypes) / float64(numCellTypes))
	if v < 0 {
		return 0
	}
	return v
}

// RelTF is the relationship analogue of TF: 1/log(#facts of P).
func (s *Stats) RelTF(p rdf.ID) float64 {
	n := s.NumFacts(p)
	if n <= 0 {
		return 0
	}
	return 1 / math.Log(1+float64(n))
}

// Summary is a human-readable profile of a KB — the per-KB half of
// Table 1's "Datasets and KBs characteristics".
type Summary struct {
	Triples    int
	Entities   int
	Types      int
	Properties int
	Facts      int // triples with a data property
}

// Summarize profiles the KB.
func Summarize(kb *rdf.Store) Summary {
	s := New(kb)
	sum := Summary{
		Triples:    kb.NumTriples(),
		Entities:   s.NumEntities(),
		Types:      s.NumTypes(),
		Properties: len(s.Properties()),
	}
	for _, p := range s.Properties() {
		sum.Facts += s.NumFacts(p)
	}
	return sum
}

// RelIDF is the relationship analogue of IDF for a cell pair related by
// numPairRels distinct properties.
func (s *Stats) RelIDF(numPairRels int) float64 {
	if numPairRels <= 0 || len(s.properties) == 0 {
		return 0
	}
	v := math.Log(float64(len(s.properties)) / float64(numPairRels))
	if v < 0 {
		return 0
	}
	return v
}
