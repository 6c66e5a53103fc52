// Package rdf implements the knowledge-base substrate for KATARA: an
// in-memory, interned RDF triple store with the RDFS vocabulary the paper
// relies on (rdfs:label, rdf:type, rdfs:subClassOf, rdfs:subPropertyOf),
// transitive closure over class and property hierarchies, a fuzzy label
// index, and N-Triples serialisation.
//
// The paper loads Yago and DBpedia into Apache Jena; this store is the
// offline stand-in. It is deliberately simple — single writer, many readers —
// and all query structure lives in package sparql on top of it.
package rdf

import (
	"fmt"
	"slices"
	"sort"

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
	terms  []Term
	lookup map[Term]ID

	// Core indexes. pso: P -> S -> sorted []O. pos: P -> O -> sorted []S.
	// sp: S -> sorted list of (P,O) pairs for subject description.
	pso map[ID]map[ID][]ID
	pos map[ID]map[ID][]ID
	sp  map[ID][]pair

	ntriples int

	// Well-known predicate IDs, interned on construction.
	TypeID, LabelID, SubClassOfID, SubPropertyOfID ID

	// Hierarchy closures, memoised per generation.
	gen        uint64
	closureGen uint64
	labelGen   uint64 // bumped whenever a label is indexed; see LabelGen
	superCls   map[ID][]ID
	subCls     map[ID][]ID
	superProp  map[ID][]ID
	subProp    map[ID][]ID

	// Label index: normalised label -> resource IDs, plus fuzzy index.
	labelIndex map[string][]ID
	fuzzy      *similarity.Index
	fuzzyIDs   []ID // fuzzy index slot -> resource ID

	// Bounded log of recently indexed labels (normalised), so layered caches
	// can invalidate per label instead of flushing wholesale. labelLog[i]
	// records the label whose indexing bumped labelGen to labelLogBase+i+1;
	// the log drops its older half once it outgrows maxLabelLog, and
	// LabelsSince reports the truncation so callers fall back to a full
	// flush.
	labelLog     []string
	labelLogBase uint64
}

// maxLabelLog bounds the label log; above it the older half is dropped.
// Enrichment runs add labels in small bursts, so any live cache syncs long
// before the window slides past it.
const maxLabelLog = 8192

type pair struct{ p, o ID }

// New returns an empty store with the RDFS vocabulary interned.
func New() *Store {
	s := &Store{
		lookup:     make(map[Term]ID),
		pso:        make(map[ID]map[ID][]ID),
		pos:        make(map[ID]map[ID][]ID),
		sp:         make(map[ID][]pair),
		labelIndex: make(map[string][]ID),
		fuzzy:      similarity.NewIndex(),
	}
	s.TypeID = s.Intern(IRI(IRIType))
	s.LabelID = s.Intern(IRI(IRILabel))
	s.SubClassOfID = s.Intern(IRI(IRISubClassOf))
	s.SubPropertyOfID = s.Intern(IRI(IRISubPropertyOf))
	return s
}

// Intern returns the ID for t, creating it if needed.
func (s *Store) Intern(t Term) ID {
	if id, ok := s.lookup[t]; ok {
		return id
	}
	id := ID(len(s.terms))
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
	return NoID
}

// Term returns the term for id.
func (s *Store) Term(id ID) Term { return s.terms[id] }

// IsLiteral reports whether id names a literal.
func (s *Store) IsLiteral(id ID) bool { return s.terms[id].Kind == Literal }

// NumTerms returns the number of interned terms.
func (s *Store) NumTerms() int { return len(s.terms) }

// NumTriples returns the number of distinct triples added.
func (s *Store) NumTriples() int { return s.ntriples }

// LabelGen returns a generation counter that changes whenever a label is
// added to the index, i.e. whenever MatchLabel results could change. Caches
// layered over label resolution (package resolve) compare it to decide when
// to invalidate. Reads follow the store's single-writer contract.
func (s *Store) LabelGen() uint64 { return s.labelGen }

// Add inserts the triple (sub, pred, obj). Duplicate triples are ignored.
// It returns true if the triple was new.
func (s *Store) Add(sub, pred, obj ID) bool {
	bySubj := s.pso[pred]
	if bySubj == nil {
		bySubj = make(map[ID][]ID)
		s.pso[pred] = bySubj
	}
	objs := bySubj[sub]
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
	subs := byObj[obj]
	j := sort.Search(len(subs), func(i int) bool { return subs[i] >= sub })
	subs = append(subs, 0)
	copy(subs[j+1:], subs[j:])
	subs[j] = sub
	byObj[obj] = subs

	s.sp[sub] = append(s.sp[sub], pair{pred, obj})
	s.ntriples++

	switch pred {
	case s.SubClassOfID, s.SubPropertyOfID:
		s.gen++ // invalidate hierarchy closures
	case s.LabelID:
		if s.IsLiteral(obj) {
			norm := similarity.Normalize(s.terms[obj].Value)
			s.labelIndex[norm] = append(s.labelIndex[norm], sub)
			s.fuzzy.Add(s.terms[obj].Value)
			s.fuzzyIDs = append(s.fuzzyIDs, sub)
			if len(s.labelLog) >= maxLabelLog {
				drop := len(s.labelLog) / 2
				s.labelLog = append(s.labelLog[:0], s.labelLog[drop:]...)
				s.labelLogBase += uint64(drop)
			}
			s.labelLog = append(s.labelLog, norm)
			s.labelGen++
		}
	}
	return true
}

// AddFact interns the three terms and adds the triple.
func (s *Store) AddFact(sub, pred Term, obj Term) bool {
	return s.Add(s.Intern(sub), s.Intern(pred), s.Intern(obj))
}

// Objects returns the objects of (sub, pred, ?o). The returned slice is
// shared with the index; callers must not mutate it.
func (s *Store) Objects(sub, pred ID) []ID {
	if m := s.pso[pred]; m != nil {
		return m[sub]
	}
	return nil
}

// Subjects returns the subjects of (?s, pred, obj). Shared slice; read-only.
func (s *Store) Subjects(pred, obj ID) []ID {
	if m := s.pos[pred]; m != nil {
		return m[obj]
	}
	return nil
}

// Has reports whether the triple (sub, pred, obj) is present.
func (s *Store) Has(sub, pred, obj ID) bool {
	objs := s.Objects(sub, pred)
	i := sort.Search(len(objs), func(i int) bool { return objs[i] >= obj })
	return i < len(objs) && objs[i] == obj
}

// PredicatesBetween returns the predicates p such that (sub, p, obj) holds.
func (s *Store) PredicatesBetween(sub, obj ID) []ID {
	var out []ID
	for _, po := range s.sp[sub] {
		if po.o == obj {
			out = append(out, po.p)
		}
	}
	slices.Sort(out)
	return dedupe(out)
}

// PredicatesOf returns the distinct predicates with sub as subject.
func (s *Store) PredicatesOf(sub ID) []ID {
	var out []ID
	for _, po := range s.sp[sub] {
		out = append(out, po.p)
	}
	slices.Sort(out)
	return dedupe(out)
}

// Description returns all (pred, obj) pairs with sub as subject.
func (s *Store) Description(sub ID) []Triple {
	pairs := s.sp[sub]
	out := make([]Triple, len(pairs))
	for i, po := range pairs {
		out[i] = Triple{S: sub, P: po.p, O: po.o}
	}
	return out
}

// ForEachTriple visits every triple in an unspecified but deterministic-per-
// store order grouped by predicate.
func (s *Store) ForEachTriple(f func(Triple)) {
	preds := make([]ID, 0, len(s.pso))
	for p := range s.pso {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	for _, p := range preds {
		bySubj := s.pso[p]
		subs := make([]ID, 0, len(bySubj))
		for su := range bySubj {
			subs = append(subs, su)
		}
		slices.Sort(subs)
		for _, su := range subs {
			for _, o := range bySubj[su] {
				f(Triple{S: su, P: p, O: o})
			}
		}
	}
}

// LabelsSince returns the normalised labels indexed after generation gen (in
// indexing order), for per-label cache invalidation. ok is false when the
// bounded log has already dropped part of that window — the caller must fall
// back to a full flush. gen beyond the current generation reports as
// truncated rather than panicking.
func (s *Store) LabelsSince(gen uint64) (labels []string, ok bool) {
	if gen > s.labelGen || gen < s.labelLogBase {
		return nil, false
	}
	return s.labelLog[gen-s.labelLogBase:], true
}

// Clone returns a deep copy of the store. Term IDs are not preserved across
// the copy; look terms up by value in the clone.
func (s *Store) Clone() *Store {
	out := New()
	s.ForEachTriple(func(t Triple) {
		out.AddFact(s.terms[t.S], s.terms[t.P], s.terms[t.O])
	})
	return out
}

// CloneExact returns a deep copy of the store that PRESERVES term IDs — the
// clone interns exactly the same terms at exactly the same IDs and holds
// exactly the same triples, so IDs (and any structure built on them:
// patterns, label matches, repair graphs) are interchangeable between the
// two stores. Incremental cleaning snapshots the pre-enrichment KB this way:
// because enrichment only appends terms, the snapshot's terms stay a prefix
// of the live store's and every snapshot ID remains valid in both.
//
// Hierarchy closures are left cold (they rebuild lazily on first use);
// everything else — including the label log and all generation counters — is
// copied, so caches keyed on generations resume seamlessly.
func (s *Store) CloneExact() *Store {
	out := &Store{
		terms:           append([]Term(nil), s.terms...),
		lookup:          make(map[Term]ID, len(s.lookup)),
		pso:             cloneIndex(s.pso),
		pos:             cloneIndex(s.pos),
		sp:              make(map[ID][]pair, len(s.sp)),
		ntriples:        s.ntriples,
		TypeID:          s.TypeID,
		LabelID:         s.LabelID,
		SubClassOfID:    s.SubClassOfID,
		SubPropertyOfID: s.SubPropertyOfID,
		gen:             s.gen,
		labelGen:        s.labelGen,
		labelIndex:      make(map[string][]ID, len(s.labelIndex)),
		fuzzy:           s.fuzzy.Clone(),
		fuzzyIDs:        append([]ID(nil), s.fuzzyIDs...),
		labelLog:        append([]string(nil), s.labelLog...),
		labelLogBase:    s.labelLogBase,
	}
	for t, id := range s.lookup {
		out.lookup[t] = id
	}
	for su, pairs := range s.sp {
		out.sp[su] = append([]pair(nil), pairs...)
	}
	for norm, ids := range s.labelIndex {
		out.labelIndex[norm] = append([]ID(nil), ids...)
	}
	return out
}

// cloneIndex deep-copies a pso/pos-shaped two-level index.
func cloneIndex(ix map[ID]map[ID][]ID) map[ID]map[ID][]ID {
	out := make(map[ID]map[ID][]ID, len(ix))
	for p, by := range ix {
		m := make(map[ID][]ID, len(by))
		for k, ids := range by {
			m[k] = append([]ID(nil), ids...)
		}
		out[p] = m
	}
	return out
}

// SubjectsWithPredicate returns the distinct subjects that have at least one
// triple with predicate p, sorted.
func (s *Store) SubjectsWithPredicate(p ID) []ID {
	bySubj := s.pso[p]
	out := make([]ID, 0, len(bySubj))
	for su := range bySubj {
		out = append(out, su)
	}
	slices.Sort(out)
	return out
}

// Predicates returns the distinct predicates present in the store.
func (s *Store) Predicates() []ID {
	out := make([]ID, 0, len(s.pso))
	for p := range s.pso {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
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
