package rdf

import (
	"maps"
	"math"
	"slices"
	"sort"
)

// This file implements the RDFS reasoning KATARA needs: transitive closure
// over rdfs:subClassOf and rdfs:subPropertyOf, type membership with
// subsumption, and the reflexive-transitive path semantics of the SPARQL
// property paths rdfs:subClassOf* / rdfs:subPropertyOf* (§3.1, §4.1).

func (s *Store) ensureClosures() {
	if s.closureGen == s.gen && s.superCls != nil {
		return
	}
	s.superCls = transitiveClosure(s.edges(s.SubClassOfID, true))
	s.subCls = transitiveClosure(s.edges(s.SubClassOfID, false))
	s.superProp = transitiveClosure(s.edges(s.SubPropertyOfID, true))
	s.subProp = transitiveClosure(s.edges(s.SubPropertyOfID, false))
	s.closureGen = s.gen
}

// edges returns the hierarchy edges of predicate p, subject to objects
// (forward) or object to subjects: a layer's map itself when the other
// layer has none, their union (own entries winning) otherwise.
func (s *Store) edges(p ID, forward bool) map[ID][]ID {
	of := func(l *layer) map[ID][]ID {
		if forward {
			return l.pso[p]
		}
		return l.pos[p]
	}
	own := of(&s.layer)
	if s.base == nil {
		return own
	}
	base := of(s.base)
	switch {
	case len(base) == 0:
		return own
	case len(own) == 0:
		return base
	}
	out := maps.Clone(base)
	maps.Copy(out, own)
	return out
}

// transitiveClosure computes, for every node in edges, the set of nodes
// reachable via one or more hops, stored as a sorted slice so membership is
// a binary search. A node reaches itself only through a cycle. The sets are
// exact whatever order the map yields its nodes in: one depth-first pass
// finds the strongly connected components (Tarjan), and a component's
// members share one set, built once every component it reaches is closed.
// Closures over the reversed edges are therefore the inverse relation.
func transitiveClosure(edges map[ID][]ID) map[ID][]ID {
	const closed = math.MaxInt // num of a node whose component is closed
	out := make(map[ID][]ID, len(edges))
	num := make(map[ID]int, len(edges)) // visit order, from 1; 0 unvisited
	var stack []ID
	var visit func(v ID) int
	visit = func(v ID) int {
		num[v] = len(num) + 1
		low := num[v]
		stack = append(stack, v)
		for _, w := range edges[v] {
			if num[w] == 0 {
				low = min(low, visit(w))
			} else {
				low = min(low, num[w])
			}
		}
		if low < num[v] {
			return low
		}
		// v roots a component: the stack above it. An edge from the
		// component leads into it (num still open) or to a closed
		// component, whose set is final.
		i := len(stack) - 1
		for stack[i] != v {
			i--
		}
		comp := stack[i:]
		var r []ID
		for _, u := range comp {
			for _, w := range edges[u] {
				r = append(r, w)
				if num[w] == closed {
					r = append(r, out[w]...)
				}
			}
		}
		r = sortDedupe(r)
		for _, u := range comp {
			num[u] = closed
			if len(r) > 0 {
				out[u] = r
			}
		}
		stack = stack[:i]
		return low
	}
	for n := range edges {
		if num[n] == 0 {
			visit(n)
		}
	}
	return out
}

// sortDedupe sorts ids ascending and removes duplicates in place.
func sortDedupe(ids []ID) []ID {
	slices.Sort(ids)
	return dedupe(ids)
}

// containsID reports whether id occurs in the ascending-sorted slice.
func containsID(sorted []ID, id ID) bool {
	i := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= id })
	return i < len(sorted) && sorted[i] == id
}

// WarmClosures forces computation of the class and property closures so a
// quiescent store can be read concurrently (the closures are memoised
// lazily and the memo write is not synchronised).
func (s *Store) WarmClosures() { s.ensureClosures() }

// SuperClasses returns the strict superclasses of c (transitive).
func (s *Store) SuperClasses(c ID) []ID {
	s.ensureClosures()
	return s.superCls[c]
}

// SubClasses returns the strict subclasses of c (transitive).
func (s *Store) SubClasses(c ID) []ID {
	s.ensureClosures()
	return s.subCls[c]
}

// SuperProperties returns the strict super-properties of p (transitive).
func (s *Store) SuperProperties(p ID) []ID {
	s.ensureClosures()
	return s.superProp[p]
}

// SubProperties returns the strict sub-properties of p (transitive).
func (s *Store) SubProperties(p ID) []ID {
	s.ensureClosures()
	return s.subProp[p]
}

// IsSubClassOf reports whether c == d or c is a transitive subclass of d.
// Closure slices are sorted, so this is a binary search — no allocation.
func (s *Store) IsSubClassOf(c, d ID) bool {
	return c == d || containsID(s.SuperClasses(c), d)
}

// IsSubPropertyOf reports whether p == q or p is a transitive sub-property of q.
func (s *Store) IsSubPropertyOf(p, q ID) bool {
	return p == q || containsID(s.SuperProperties(p), q)
}

// DirectTypes returns the asserted rdf:type classes of x.
func (s *Store) DirectTypes(x ID) []ID { return s.Objects(x, s.TypeID) }

// AllTypes returns the asserted types of x together with all their
// superclasses — the result set of the paper's Q_types query
// (?x rdf:type/rdfs:subClassOf* ?c).
func (s *Store) AllTypes(x ID) []ID {
	direct := s.DirectTypes(x)
	if len(direct) == 0 {
		return nil
	}
	out := make([]ID, 0, len(direct)*2)
	for _, t := range direct {
		out = append(out, t)
		out = append(out, s.SuperClasses(t)...)
	}
	return sortDedupe(out)
}

// HasType reports whether x has type c directly or through subclassing,
// i.e. type(x)=c or subclassOf(type(x), c) per §3.2 condition 2.
func (s *Store) HasType(x, c ID) bool {
	for _, t := range s.DirectTypes(x) {
		if s.IsSubClassOf(t, c) {
			return true
		}
	}
	return false
}

// InstancesOf returns the entities whose asserted type is c or any subclass
// of c. The result is sorted and deduplicated.
func (s *Store) InstancesOf(c ID) []ID {
	classes := append([]ID{c}, s.SubClasses(c)...)
	var out []ID
	for _, cl := range classes {
		out = append(out, s.Subjects(s.TypeID, cl)...)
	}
	slices.Sort(out)
	return dedupe(out)
}

// Classes returns every resource used as an rdf:type object or in the
// subclass hierarchy — the KB's set of types.
func (s *Store) Classes() []ID {
	ms := []map[ID][]ID{s.pos[s.TypeID], s.pso[s.SubClassOfID], s.pos[s.SubClassOfID]}
	if b := s.base; b != nil {
		ms = append(ms, b.pos[s.TypeID], b.pso[s.SubClassOfID], b.pos[s.SubClassOfID])
	}
	return sortedKeys(ms...)
}

// PredicatesBetweenSub returns the predicates p such that some (sub, p', obj)
// holds with p' = p or subpropertyOf(p', p) — the ?P/rdfs:subPropertyOf*
// semantics of the paper's Q_rels queries.
func (s *Store) PredicatesBetweenSub(sub, obj ID) []ID {
	direct := s.PredicatesBetween(sub, obj)
	if len(direct) == 0 {
		return nil
	}
	out := make([]ID, 0, len(direct)*2)
	for _, p := range direct {
		out = append(out, p)
		out = append(out, s.SuperProperties(p)...)
	}
	return sortDedupe(out)
}

// HasPredicate reports whether (sub, p', obj) holds for p'=p or any
// sub-property of p — §3.2 condition 3.
func (s *Store) HasPredicate(sub, p, obj ID) bool {
	for _, q := range s.PredicatesBetween(sub, obj) {
		if s.IsSubPropertyOf(q, p) {
			return true
		}
	}
	return false
}
