// Package rdf implements the knowledge-base substrate for KATARA: an
// in-memory, interned RDF triple store with the RDFS vocabulary the paper
// relies on (rdfs:label, rdf:type, rdfs:subClassOf, rdfs:subPropertyOf),
// transitive closure over class and property hierarchies, a fuzzy label
// index, and N-Triples serialisation.
//
// The paper loads Yago and DBpedia into Apache Jena; this store is the
// offline stand-in. It is deliberately simple — single writer, many readers.
// The pipeline evaluates the paper's query shapes as direct lookups on its
// indexes; package sparql, a text-query engine over the same store, is used
// only by examples/sparql.
//
// Stores share indexes copy-on-write (CloneExact). An index layer a store
// has shared is frozen, and a frozen layer memoises its fuzzy label
// lookups for every store that reads it: the paper treats KB-only work as
// offline, once per KB, and on the job server each distinct lookup against
// the pristine KB is answered once for all jobs rather than once per job.
package rdf

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"katara/internal/similarity"
)

// Well-known vocabulary IRIs.
const (
	IRIType          = "rdf:type"
	IRILabel         = "rdfs:label"
	IRISubClassOf    = "rdfs:subClassOf"
	IRISubPropertyOf = "rdfs:subPropertyOf"
)

// TermKind discriminates resources from literals.
type TermKind uint8

const (
	// Resource terms are IRIs naming entities, classes or properties.
	Resource TermKind = iota
	// Literal terms are strings, numbers or dates.
	Literal
)

// Term is an RDF term: a resource (IRI) or a literal.
type Term struct {
	Kind  TermKind
	Value string
}

// IRI returns a resource term.
func IRI(v string) Term { return Term{Kind: Resource, Value: v} }

// Lit returns a literal term.
func Lit(v string) Term { return Term{Kind: Literal, Value: v} }

// String renders a term in N-Triples-like syntax.
func (t Term) String() string {
	if t.Kind == Literal {
		return fmt.Sprintf("%q", t.Value)
	}
	return "<" + t.Value + ">"
}

// ID is an interned term identifier within one Store.
type ID int32

// NoID is returned by lookups that find nothing.
const NoID ID = -1

// Triple is one (subject, predicate, object) statement by ID.
type Triple struct{ S, P, O ID }

// Store is the triple store. The zero value is not usable; call New.
type Store struct {
	// layer holds the indexes this store writes: all of them on a store
	// that never shared its indexes, and on a written share only the keys
	// it has touched since its first write (see base).
	layer
	// base is the frozen layer beneath a share that has written, nil
	// otherwise: reads check the store's own layer, then base, and nbase is
	// the number of terms base interns (IDs below nbase name them).
	base  *layer
	nbase int

	ntriples int

	// Well-known predicate IDs, interned on construction.
	TypeID, LabelID, SubClassOfID, SubPropertyOfID ID

	// Hierarchy closures, memoised per generation.
	gen        uint64
	closureGen uint64
	superCls   map[ID][]ID
	subCls     map[ID][]ID
	superProp  map[ID][]ID
	subProp    map[ID][]ID

	// labelGen counts the labels indexed (see LabelGen). Each label bumps
	// it once and adds one entry to a fuzzy index, so label g (1-based) is
	// fuzzy entry g-1 over both layers: base's entries, then the own
	// layer's.
	labelGen uint64

	// shared is set on a store whose own layer another store reads since a
	// CloneExact (the clone, or a snapshot's view); its first write moves
	// that layer to base and starts an empty one. A layer is frozen while
	// its store is shared and for good once it is a base, so label lookups
	// on it go through its memo (see MatchLabelNorm). Intern (on a new term)
	// and Add are the only methods that write the layers, so they are the
	// only callers of unshare, on a store that is shared or in a snapshot;
	// the parsers and ReadSnapshot write through them, and ensureClosures
	// writes only this store's closure memo. Any new write path must do the
	// same first. Atomic because
	// several goroutines may take CloneExact of one quiescent store at once;
	// a frozen layer is never written again, so a reader of one store never
	// races the writer of another.
	shared atomic.Bool
	// snap is the snapshot this store belongs to while it has not been
	// written since a CloneExact; see Derived.
	snap atomic.Pointer[snapshot]
}

// layer is one level of a store's indexes. pso: P -> S -> sorted []O.
// pos: P -> O -> sorted []S. sp: S -> (P,O) pairs in insertion order, for
// subject description. fuzzy is the trigram index over the labels and
// fuzzyIDs maps a fuzzy slot to its resource. In a written share's own
// layer, a key present in a map holds that key's whole entry (copied from
// the base on first touch), terms are the terms interned after base's, and
// added lists the triples written since the first write, in order. memo
// holds the layer's fuzzy-lookup answers once it is frozen (see labelMemo);
// every copy of the layer value shares it.
type layer struct {
	terms    []Term
	lookup   map[Term]ID
	pso, pos map[ID]map[ID][]ID
	sp       map[ID][]pair
	fuzzy    *similarity.Index
	fuzzyIDs []ID
	added    []Triple
	memo     *labelMemo
}

func newLayer() layer {
	return layer{
		lookup: make(map[Term]ID),
		pso:    make(map[ID]map[ID][]ID),
		pos:    make(map[ID]map[ID][]ID),
		sp:     make(map[ID][]pair),
		fuzzy:  similarity.NewIndex(),
		memo:   &labelMemo{},
	}
}

type pair struct{ p, o ID }

// New returns an empty store with the RDFS vocabulary interned.
func New() *Store {
	s := &Store{layer: newLayer()}
	s.TypeID = s.Intern(IRI(IRIType))
	s.LabelID = s.Intern(IRI(IRILabel))
	s.SubClassOfID = s.Intern(IRI(IRISubClassOf))
	s.SubPropertyOfID = s.Intern(IRI(IRISubPropertyOf))
	return s
}

// Intern returns the ID for t, creating it if needed.
func (s *Store) Intern(t Term) ID {
	if id := s.LookupTerm(t); id != NoID {
		return id
	}
	if s.shared.Load() || s.snap.Load() != nil {
		s.unshare()
	}
	id := ID(s.nbase + len(s.terms))
	s.terms = append(s.terms, t)
	s.lookup[t] = id
	return id
}

// Res interns a resource IRI.
func (s *Store) Res(iri string) ID { return s.Intern(IRI(iri)) }

// Literal interns a literal value.
func (s *Store) Literal(v string) ID { return s.Intern(Lit(v)) }

// LookupTerm returns the ID of t without interning, or NoID.
func (s *Store) LookupTerm(t Term) ID {
	if id, ok := s.lookup[t]; ok {
		return id
	}
	if s.base != nil {
		if id, ok := s.base.lookup[t]; ok {
			return id
		}
	}
	return NoID
}

// Term returns the term for id.
func (s *Store) Term(id ID) Term {
	if int(id) < s.nbase {
		return s.base.terms[id]
	}
	return s.terms[int(id)-s.nbase]
}

// IsLiteral reports whether id names a literal.
func (s *Store) IsLiteral(id ID) bool { return s.Term(id).Kind == Literal }

// NumTerms returns the number of interned terms.
func (s *Store) NumTerms() int { return s.nbase + len(s.terms) }

// NumTriples returns the number of distinct triples added.
func (s *Store) NumTriples() int { return s.ntriples }

// LabelGen returns a generation counter that changes whenever a label is
// added to the index, i.e. whenever MatchLabel results could change: the
// number of labels indexed so far. Labels are only ever added, so an answer
// taken at one generation is brought up to date by MatchLabelSince. Reads
// follow the store's single-writer contract.
func (s *Store) LabelGen() uint64 { return s.labelGen }

// Add inserts the triple (sub, pred, obj). Duplicate triples are ignored.
// It returns true if the triple was new.
func (s *Store) Add(sub, pred, obj ID) bool {
	if s.shared.Load() || s.snap.Load() != nil {
		if s.Has(sub, pred, obj) {
			return false // a duplicate writes nothing
		}
		s.unshare()
	}
	// A written share's first touch of a key copies the base's entry (see
	// entry); a store without a base reads a zero layer, all of whose maps
	// are nil.
	var base layer
	if s.base != nil {
		base = *s.base
	}
	bySubj := s.pso[pred]
	if bySubj == nil {
		bySubj = make(map[ID][]ID)
		s.pso[pred] = bySubj
	}
	objs := entry(bySubj, base.pso[pred], sub)
	i := sort.Search(len(objs), func(i int) bool { return objs[i] >= obj })
	if i < len(objs) && objs[i] == obj {
		return false
	}
	objs = append(objs, 0)
	copy(objs[i+1:], objs[i:])
	objs[i] = obj
	bySubj[sub] = objs

	byObj := s.pos[pred]
	if byObj == nil {
		byObj = make(map[ID][]ID)
		s.pos[pred] = byObj
	}
	subs := entry(byObj, base.pos[pred], obj)
	j := sort.Search(len(subs), func(i int) bool { return subs[i] >= sub })
	subs = append(subs, 0)
	copy(subs[j+1:], subs[j:])
	subs[j] = sub
	byObj[obj] = subs

	s.sp[sub] = append(entry(s.sp, base.sp, sub), pair{pred, obj})
	s.ntriples++
	if s.base != nil {
		s.added = append(s.added, Triple{sub, pred, obj})
	}

	switch pred {
	case s.SubClassOfID, s.SubPropertyOfID:
		s.gen++ // invalidate hierarchy closures
	case s.LabelID:
		if s.IsLiteral(obj) {
			s.fuzzy.Add(s.Term(obj).Value)
			s.fuzzyIDs = append(s.fuzzyIDs, sub)
			s.labelGen++
		}
	}
	return true
}

// entry returns own[k] for writing: the own layer's entry, or on its first
// touch the base's entry clipped to its length, so that appending to it
// copies it rather than writing the frozen array.
func entry[K comparable, V any](own, base map[K][]V, k K) []V {
	if v, ok := own[k]; ok {
		return v
	}
	return slices.Clip(base[k])
}

// AddFact interns the three terms and adds the triple.
func (s *Store) AddFact(sub, pred Term, obj Term) bool {
	return s.Add(s.Intern(sub), s.Intern(pred), s.Intern(obj))
}

// Objects returns the objects of (sub, pred, ?o). The returned slice is
// shared with the index; callers must not mutate it.
func (s *Store) Objects(sub, pred ID) []ID {
	if objs, ok := s.pso[pred][sub]; ok {
		return objs
	}
	if s.base != nil {
		return s.base.pso[pred][sub]
	}
	return nil
}

// Subjects returns the subjects of (?s, pred, obj). Shared slice; read-only.
func (s *Store) Subjects(pred, obj ID) []ID {
	if subs, ok := s.pos[pred][obj]; ok {
		return subs
	}
	if s.base != nil {
		return s.base.pos[pred][obj]
	}
	return nil
}

// Has reports whether the triple (sub, pred, obj) is present.
func (s *Store) Has(sub, pred, obj ID) bool {
	objs := s.Objects(sub, pred)
	i := sort.Search(len(objs), func(i int) bool { return objs[i] >= obj })
	return i < len(objs) && objs[i] == obj
}

// pairs returns sub's (pred, obj) pairs. Shared slice; read-only.
func (s *Store) pairs(sub ID) []pair {
	if ps, ok := s.sp[sub]; ok {
		return ps
	}
	if s.base != nil {
		return s.base.sp[sub]
	}
	return nil
}

// PredicatesBetween returns the predicates p such that (sub, p, obj) holds.
func (s *Store) PredicatesBetween(sub, obj ID) []ID {
	var out []ID
	for _, po := range s.pairs(sub) {
		if po.o == obj {
			out = append(out, po.p)
		}
	}
	slices.Sort(out)
	return dedupe(out)
}

// Description returns all (pred, obj) pairs with sub as subject.
func (s *Store) Description(sub ID) []Triple {
	pairs := s.pairs(sub)
	out := make([]Triple, len(pairs))
	for i, po := range pairs {
		out[i] = Triple{S: sub, P: po.p, O: po.o}
	}
	return out
}

// ForEachTriple visits every triple in an unspecified but deterministic-per-
// store order grouped by predicate.
func (s *Store) ForEachTriple(f func(Triple)) {
	for _, p := range s.Predicates() {
		for _, su := range s.SubjectsWithPredicate(p) {
			for _, o := range s.Objects(su, p) {
				f(Triple{S: su, P: p, O: o})
			}
		}
	}
}

// Clone returns a deep copy of the store. Term IDs are not preserved across
// the copy; look terms up by value in the clone.
func (s *Store) Clone() *Store {
	out := New()
	s.ForEachTriple(func(t Triple) {
		out.AddFact(s.Term(t.S), s.Term(t.P), s.Term(t.O))
	})
	return out
}

// CloneExact returns a copy of the store that PRESERVES term IDs — the
// clone interns exactly the same terms at exactly the same IDs and holds
// exactly the same triples, so IDs (and any structure built on them:
// patterns, label matches, repair graphs) are interchangeable between the
// two stores. Incremental cleaning snapshots the pre-enrichment KB this way:
// because enrichment only appends terms, the snapshot's terms stay a prefix
// of the live store's and every snapshot ID remains valid in both.
//
// The copy is copy-on-write at the granularity of an index key. A store
// that has not written since it first shared costs O(1) to copy: the two
// share its indexes, and each side's first write freezes them as its base
// and writes into a layer of its own that holds only the keys it touches.
// A share that has written copies only that layer, so no store reads
// through more than its own layer and one base. Warm hierarchy closures
// and all generation counters are carried over, so caches keyed on
// generations resume seamlessly, and the copy joins the source's snapshot
// (see Derived). Several goroutines may take CloneExact of one store at
// once while nothing writes it.
func (s *Store) CloneExact() *Store {
	out := s.share()
	snap := s.snap.Load()
	if snap == nil {
		snap = &snapshot{view: s.share(), memo: make(map[any]any)}
		if !s.snap.CompareAndSwap(nil, snap) {
			snap = s.snap.Load()
		}
	}
	out.snap.Store(snap)
	return out
}

// share returns a store that reads exactly as s does. A store without a
// base hands over its own layer and marks both sides shared; a written
// share keeps its base and replays its own layer's terms and triples into
// a fresh layer, which rebuilds exactly the entries it holds.
func (s *Store) share() *Store {
	out := &Store{
		base:            s.base,
		nbase:           s.nbase,
		TypeID:          s.TypeID,
		LabelID:         s.LabelID,
		SubClassOfID:    s.SubClassOfID,
		SubPropertyOfID: s.SubPropertyOfID,
	}
	if s.base == nil {
		s.shared.Store(true)
		out.layer = s.layer
		out.shared.Store(true)
	} else {
		out.layer = newLayer()
		for _, t := range s.terms {
			out.Intern(t)
		}
		for _, t := range s.added {
			out.Add(t.S, t.P, t.O)
		}
	}
	out.ntriples, out.gen = s.ntriples, s.gen
	out.labelGen = s.labelGen
	out.closureGen = s.closureGen
	out.superCls, out.subCls = s.superCls, s.subCls
	out.superProp, out.subProp = s.superProp, s.subProp
	return out
}

// unshare makes the store's next write its own: the store leaves its
// snapshot, and a store whose own layer is shared freezes that layer as its
// base and starts an empty one. Closure maps are never written in place
// (ensureClosures replaces them), so they need no copy.
func (s *Store) unshare() {
	s.snap.Store(nil)
	if !s.shared.Load() {
		return
	}
	base := s.layer
	s.base, s.nbase = &base, len(base.terms)
	s.layer = newLayer()
	s.shared.Store(false)
}

// snapshot is what a store and the CloneExact copies taken of it have in
// common while none of them has been written: a private share nobody
// writes, and the values Derived computes from it.
type snapshot struct {
	view *Store
	mu   sync.Mutex
	memo map[any]any
}

// Derived returns build(kb) for a kb that reads exactly as s does. While s
// belongs to a snapshot — it is a CloneExact copy, or the source of one,
// and has not been written since — the value is computed at most once per
// snapshot, from the snapshot's private share, and shared by every store of
// the snapshot under the same key; otherwise build runs on s. A store
// leaves its snapshot at its first write. build and the value must only
// read kb. The value may keep kb and read it later: a snapshot's share is
// never written (its hierarchy closures are warmed before build), so its
// reads need no lock, but a value shared by several stores must guard any
// memo of its own. Safe for concurrent use by the stores of one snapshot.
func (s *Store) Derived(key any, build func(kb *Store) any) any {
	snap := s.snap.Load()
	if snap == nil {
		return build(s)
	}
	snap.mu.Lock()
	defer snap.mu.Unlock()
	v, ok := snap.memo[key]
	if !ok {
		snap.view.ensureClosures()
		v = build(snap.view)
		snap.memo[key] = v
	}
	return v
}

// SubjectsWithPredicate returns the distinct subjects that have at least one
// triple with predicate p, sorted.
func (s *Store) SubjectsWithPredicate(p ID) []ID {
	if s.base == nil {
		return sortedKeys(s.pso[p])
	}
	return sortedKeys(s.pso[p], s.base.pso[p])
}

// ForEachSubject calls f once for every distinct subject that has at least
// one triple with predicate p, with its objects (shared; read-only), in no
// particular order: a count over p's triples needs no sorted subject list.
func (s *Store) ForEachSubject(p ID, f func(sub ID, objs []ID)) {
	own := s.pso[p]
	for sub, objs := range own {
		f(sub, objs)
	}
	if s.base == nil {
		return
	}
	for sub, objs := range s.base.pso[p] {
		if _, ok := own[sub]; !ok {
			f(sub, objs)
		}
	}
}

// Predicates returns the distinct predicates present in the store.
func (s *Store) Predicates() []ID {
	if s.base == nil {
		return sortedKeys(s.pso)
	}
	return sortedKeys(s.pso, s.base.pso)
}

// sortedKeys returns the union of the maps' keys, sorted.
func sortedKeys[V any](ms ...map[ID]V) []ID {
	n := 0
	for _, m := range ms {
		n += len(m)
	}
	out := make([]ID, 0, n)
	for _, m := range ms {
		for k := range m {
			out = append(out, k)
		}
	}
	return sortDedupe(out)
}

func dedupe(ids []ID) []ID {
	if len(ids) < 2 {
		return ids
	}
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
