// Package kbstats computes the knowledge-base statistics KATARA's scoring
// model needs (§4.1–4.3): entity/type/property counts for tf-idf, the
// PMI-based semantic-coherence scores subSC(T,P) / objSC(T,P) between types
// and relationships, and each relationship's maximum coherence with any
// type, the rank-join upper bound.
//
// The paper computes its statistics offline, once per KB. Here each one is
// computed the first time a run asks for it, and kept for every store that
// reads the same KB state: New is O(1), and the tables behind it are one
// value per rdf snapshot (rdf.Store.Derived), so the jobs of a server built
// on one pristine KB share every count, coherence score and maximum any of
// them has read. A run asks only about the types and relationships its
// table's cells resolve to: a WebTables table reads about 90 of the
// Yago-shaped KB's 300-odd class sizes and the coherence of two or three
// properties.
package kbstats

import (
	"math"
	"sync"

	"katara/internal/rdf"
)

// Stats answers the statistics of one KB as it reads at New. It belongs to
// one goroutine: discovery's workers read only KB(). Stats keeps the answers
// it has read from the shared tables, so its hot reads (TF in scoring,
// coherence in the rank join) skip the tables' lock.
type Stats struct {
	kb *rdf.Store
	t  *tables

	counts *counts
	size   map[rdf.ID]int
	facts  map[rdf.ID]int
	coh    map[rdf.ID]*coherence
}

// tables are the statistics of one KB state, each filled on its first ask
// under mu. A snapshot's tables read the snapshot's private view, which
// nobody writes; any other store's tables read the store in place, so they
// record its triple count and refuse to fill once it has moved.
type tables struct {
	kb      *rdf.Store
	triples int

	mu     sync.Mutex
	counts *counts
	size   map[rdf.ID]int        // class -> |ENT(class)|
	facts  map[rdf.ID]int        // property -> #triples
	coh    map[rdf.ID]*coherence // property -> its coherence with every class
	// mark and epoch dedupe one union at a time: mark[id] == epoch means id
	// is already counted.
	mark  []uint32
	epoch uint32
}

// counts are the KB-wide counts.
type counts struct {
	entities   int      // typed resources
	types      int      // |Classes|
	properties []rdf.ID // data properties (relationship candidates), sorted
}

// coherence holds what subSC and objSC of one property read: its subject
// and object sides.
type coherence struct{ sub, obj side }

// side is one side of a property: its distinct entities, how many of them
// are instances of each class, and the best coherence any class reaches.
type side struct {
	entities int
	in       map[rdf.ID]int
	max      float64
}

// tablesKey keys the tables among the values derived from an rdf snapshot.
type tablesKey struct{}

// New returns kb's statistics, computed as they are asked for. On a store
// that belongs to an rdf snapshot (see rdf.Store.Derived) they are the
// snapshot's, shared with its other stores, and keep answering for the
// snapshot after kb's first write. Otherwise they read kb in place, and kb
// must not be written while they are read: a read that would fill a
// statistic after a write panics.
func New(kb *rdf.Store) *Stats {
	return &Stats{
		kb:    kb,
		t:     kb.Derived(tablesKey{}, newTables).(*tables),
		size:  make(map[rdf.ID]int),
		facts: make(map[rdf.ID]int),
		coh:   make(map[rdf.ID]*coherence),
	}
}

func newTables(kb *rdf.Store) any {
	return &tables{
		kb:      kb,
		triples: kb.NumTriples(),
		size:    make(map[rdf.ID]int),
		facts:   make(map[rdf.ID]int),
		coh:     make(map[rdf.ID]*coherence),
	}
}

// lock takes t's lock for a fill. A store read in place that has been
// written since New is no longer the KB these tables answer for.
func (t *tables) lock() {
	t.mu.Lock()
	if t.kb.NumTriples() != t.triples {
		t.mu.Unlock()
		panic("kbstats: KB written after kbstats.New; statistics must be taken again")
	}
}

// cached returns m[k], asking fill on the first read.
func cached[V any](m map[rdf.ID]V, k rdf.ID, fill func(rdf.ID) V) V {
	v, ok := m[k]
	if !ok {
		v = fill(k)
		m[k] = v
	}
	return v
}

func (t *tables) kbCounts() *counts {
	t.lock()
	defer t.mu.Unlock()
	return t.countsLocked()
}

func (t *tables) classSize(c rdf.ID) int {
	t.lock()
	defer t.mu.Unlock()
	return t.sizeLocked(c)
}

func (t *tables) numFacts(p rdf.ID) int {
	t.lock()
	defer t.mu.Unlock()
	return cached(t.facts, p, func(p rdf.ID) int {
		n := 0
		if !isVocab(t.kb, p) {
			t.kb.ForEachSubject(p, func(_ rdf.ID, objs []rdf.ID) { n += len(objs) })
		}
		return n
	})
}

func (t *tables) coherence(p rdf.ID) *coherence {
	t.lock()
	defer t.mu.Unlock()
	return cached(t.coh, p, t.fillCoherence)
}

func (t *tables) countsLocked() *counts {
	if t.counts != nil {
		return t.counts
	}
	kb := t.kb
	c := &counts{types: len(kb.Classes())}
	kb.ForEachSubject(kb.TypeID, func(e rdf.ID, _ []rdf.ID) {
		if !kb.IsLiteral(e) {
			c.entities++
		}
	})
	for _, p := range kb.Predicates() {
		if !isVocab(kb, p) {
			c.properties = append(c.properties, p)
		}
	}
	t.counts = c
	return c
}

// sizeLocked returns |ENT(c)|: the union of the direct instances of c and
// of its subclasses.
func (t *tables) sizeLocked(c rdf.ID) int {
	return cached(t.size, c, func(c rdf.ID) int {
		kb := t.kb
		subs := kb.SubClasses(c)
		if len(subs) == 0 {
			return len(kb.Subjects(kb.TypeID, c))
		}
		epoch, n := t.nextEpoch(), 0
		union := func(cl rdf.ID) {
			for _, e := range kb.Subjects(kb.TypeID, cl) {
				if t.mark[e] != epoch {
					t.mark[e] = epoch
					n++
				}
			}
		}
		union(c)
		for _, cl := range subs {
			union(cl)
		}
		return n
	})
}

// fillCoherence collects p's subject and object entities, counts per class
// how many of each side's entities are its instances, and takes each side's
// maximum coherence over those classes; every other class scores 0.
func (t *tables) fillCoherence(p rdf.ID) *coherence {
	c := &coherence{}
	if isVocab(t.kb, p) {
		return c
	}
	kb := t.kb
	var subs, objs []rdf.ID
	epoch := t.nextEpoch()
	kb.ForEachSubject(p, func(s rdf.ID, os []rdf.ID) {
		if isEntity(kb, s) {
			subs = append(subs, s)
		}
		for _, o := range os {
			if t.mark[o] != epoch {
				t.mark[o] = epoch
				if isEntity(kb, o) {
					objs = append(objs, o)
				}
			}
		}
	})
	c.sub, c.obj = t.side(subs), t.side(objs)
	return c
}

func (t *tables) side(entities []rdf.ID) side {
	sd := side{entities: len(entities), in: make(map[rdf.ID]int)}
	for _, e := range entities {
		for _, c := range t.kb.AllTypes(e) {
			sd.in[c]++
		}
	}
	n := t.countsLocked().entities
	for c, k := range sd.in {
		sd.max = max(sd.max, score(k, t.sizeLocked(c), sd.entities, n))
	}
	return sd
}

func (t *tables) nextEpoch() uint32 {
	if t.mark == nil {
		t.mark = make([]uint32, t.kb.NumTerms())
	}
	t.epoch++
	return t.epoch
}

// isVocab reports whether p is RDFS vocabulary rather than a data property.
func isVocab(kb *rdf.Store, p rdf.ID) bool {
	return p == kb.TypeID || p == kb.LabelID || p == kb.SubClassOfID || p == kb.SubPropertyOfID
}

// isEntity reports whether x is a typed resource.
func isEntity(kb *rdf.Store, x rdf.ID) bool {
	return !kb.IsLiteral(x) && len(kb.DirectTypes(x)) > 0
}

// KB returns the underlying store.
func (s *Stats) KB() *rdf.Store { return s.kb }

func (s *Stats) kbCounts() *counts {
	if s.counts == nil {
		s.counts = s.t.kbCounts()
	}
	return s.counts
}

// NumEntities returns N, the total number of typed entities.
func (s *Stats) NumEntities() int { return s.kbCounts().entities }

// NumTypes returns the number of classes in the KB (used by idf).
func (s *Stats) NumTypes() int { return s.kbCounts().types }

// Properties returns the relationship candidates (non-vocabulary predicates).
func (s *Stats) Properties() []rdf.ID { return s.kbCounts().properties }

// NumFacts returns the number of triples with property p.
func (s *Stats) NumFacts(p rdf.ID) int { return cached(s.facts, p, s.t.numFacts) }

// EntitiesOfType returns |ENT(T)|: instances of T including subclasses.
func (s *Stats) EntitiesOfType(t rdf.ID) int { return cached(s.size, t, s.t.classSize) }

// SubSC returns the subject semantic coherence of type t for property p:
//
//	subSC(T,P) = (NPMI_sub(T,P) + 1) / 2  ∈ [0,1]
//
// with NPMI_sub(T,P) = PMI_sub(T,P) / (−log Pr_sub(P∩T)). The paper's
// formula prints the denominator as −Pr_sub(P∩T); we follow the cited
// Bouma (2009) normalisation, which requires the log for NPMI ∈ [−1,1].
func (s *Stats) SubSC(t, p rdf.ID) float64 { return s.sideSC(t, &s.coherence(p).sub) }

// ObjSC returns the object semantic coherence of type t for property p.
func (s *Stats) ObjSC(t, p rdf.ID) float64 { return s.sideSC(t, &s.coherence(p).obj) }

func (s *Stats) coherence(p rdf.ID) *coherence { return cached(s.coh, p, s.t.coherence) }

// sideSC is the coherence of class t with one side of a property. A class
// none of the side's entities belong to scores 0 (NPMI = −1).
func (s *Stats) sideSC(t rdf.ID, sd *side) float64 {
	k := sd.in[t]
	if k == 0 {
		return 0
	}
	return score(k, s.EntitiesOfType(t), sd.entities, s.NumEntities())
}

// score computes (NPMI+1)/2 between a class of size entT and a property side
// of size side, inter of whose entities are instances of the class, in a KB
// of n entities.
func score(inter, entT, side, n int) float64 {
	if n == 0 || side == 0 || entT == 0 || inter == 0 {
		return 0
	}
	pJoint := float64(inter) / float64(n)
	pT := float64(entT) / float64(n)
	pP := float64(side) / float64(n)
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

// MaxSubSC returns max over all types T of subSC(T,p), used in the
// rank-join upper bound (§4.3: "for each relationship, we also keep the
// maximum coherence score it can achieve with any type").
func (s *Stats) MaxSubSC(p rdf.ID) float64 { return s.coherence(p).sub.max }

// MaxObjSC returns max over all types T of objSC(T,p).
func (s *Stats) MaxObjSC(p rdf.ID) float64 { return s.coherence(p).obj.max }

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
	if numCellTypes <= 0 || s.NumTypes() == 0 {
		return 0
	}
	v := math.Log(float64(s.NumTypes()) / float64(numCellTypes))
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
	if numPairRels <= 0 || len(s.Properties()) == 0 {
		return 0
	}
	v := math.Log(float64(len(s.Properties())) / float64(numPairRels))
	if v < 0 {
		return 0
	}
	return v
}
