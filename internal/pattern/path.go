package pattern

import (
	"fmt"
	"strings"

	"katara/internal/rdf"
	"katara/internal/similarity"
)

// This file implements the paper's §9 extension to table patterns:
// relationships that traverse a *chain* of properties through intermediate
// resources — "a person column A1 is related to a country column A2 via two
// relationships: A1 wasBornIn city, and city isLocatedIn A2".

// PathEdge is a directed multi-hop relationship between two columns: From
// relates to To through Props[0]/Props[1]/…, each hop honouring
// sub-property subsumption, with unconstrained intermediate resources.
type PathEdge struct {
	From, To int
	Props    []rdf.ID
}

// HasPath reports whether a chain x -Props[0]-> m1 -Props[1]-> … -> y exists
// in kb, with each hop satisfied by the property or one of its
// sub-properties. Intermediates must be resources.
func HasPath(kb *rdf.Store, x rdf.ID, props []rdf.ID, y rdf.ID) bool {
	frontier := map[rdf.ID]bool{x: true}
	for i, p := range props {
		last := i == len(props)-1
		next := map[rdf.ID]bool{}
		subs := append([]rdf.ID{p}, kb.SubProperties(p)...)
		for n := range frontier {
			for _, q := range subs {
				for _, o := range kb.Objects(n, q) {
					if last {
						if o == y {
							return true
						}
						continue
					}
					if !kb.IsLiteral(o) {
						next[o] = true
					}
				}
			}
		}
		if last {
			return false
		}
		if len(next) == 0 {
			return false
		}
		frontier = next
	}
	return false
}

// PathEdgeBetween returns the path edge from col i to col j, or nil.
func (p *Pattern) PathEdgeBetween(i, j int) *PathEdge {
	for k := range p.Paths {
		if p.Paths[k].From == i && p.Paths[k].To == j {
			return &p.Paths[k]
		}
	}
	return nil
}

// RenderPath pretty-prints a path edge.
func (pe PathEdge) Render(kb *rdf.Store, columns []string) string {
	colName := func(c int) string {
		if c >= 0 && c < len(columns) {
			return columns[c]
		}
		return fmt.Sprintf("col%d", c)
	}
	parts := make([]string, len(pe.Props))
	for i, p := range pe.Props {
		parts[i] = kb.LabelOf(p)
	}
	return fmt.Sprintf("%s -%s-> %s", colName(pe.From), strings.Join(parts, "∘"), colName(pe.To))
}

// evaluatePaths fills m.PathOK for each path edge, and is consulted by the
// consistent-assignment search.
func evaluatePaths(p *Pattern, kb *rdf.Store, m *Match) {
	m.PathOK = make([]bool, len(p.Paths))
	for i, pe := range p.Paths {
		ok := false
		for _, x := range m.Candidates[pe.From] {
			for _, y := range m.Candidates[pe.To] {
				if HasPath(kb, x, pe.Props, y) {
					ok = true
					break
				}
			}
			if ok {
				break
			}
		}
		m.PathOK[i] = ok
	}
}

// DiscoverPaths finds candidate two-hop path relationships between column
// pairs of a table that have *no* direct relationship in kb: for each value
// pair (a, b), it searches chains a -p1-> m -p2-> b and returns the
// distinct property chains with their support (number of rows exhibiting
// the chain). Rows is the number of rows examined; results below
// minSupport·rows are dropped.
func DiscoverPaths(kb *rdf.Store, valuesA, valuesB []string, threshold, minSupport float64) []DiscoveredPath {
	if len(valuesA) != len(valuesB) {
		return nil
	}
	counts := map[[2]rdf.ID]int{}
	cache := map[[2]string][][2]rdf.ID{}
	for i := range valuesA {
		key := [2]string{valuesA[i], valuesB[i]}
		chains, ok := cache[key]
		if !ok {
			chains = twoHopChains(kb, valuesA[i], valuesB[i], threshold)
			cache[key] = chains
		}
		seen := map[[2]rdf.ID]bool{}
		for _, ch := range chains {
			if !seen[ch] {
				seen[ch] = true
				counts[ch]++
			}
		}
	}
	min := int(minSupport * float64(len(valuesA)))
	if min < 2 {
		min = 2
	}
	var out []DiscoveredPath
	for ch, n := range counts {
		if n >= min {
			out = append(out, DiscoveredPath{Props: []rdf.ID{ch[0], ch[1]}, Support: n})
		}
	}
	sortDiscovered(out)
	return out
}

// DiscoveredPath is one candidate property chain with its support.
type DiscoveredPath struct {
	Props   []rdf.ID
	Support int
}

func sortDiscovered(ps []DiscoveredPath) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func less(a, b DiscoveredPath) bool {
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	if a.Props[0] != b.Props[0] {
		return a.Props[0] < b.Props[0]
	}
	return a.Props[1] < b.Props[1]
}

// twoHopChains finds the (p1, p2) chains connecting resources labelled a to
// resources labelled b through one intermediate resource.
func twoHopChains(kb *rdf.Store, a, b string, threshold float64) [][2]rdf.ID {
	var srcs, dsts []rdf.ID
	for _, m := range kb.MatchLabel(a, threshold) {
		srcs = append(srcs, m.Resource)
	}
	for _, m := range kb.MatchLabel(b, threshold) {
		dsts = append(dsts, m.Resource)
	}
	if len(srcs) == 0 || len(dsts) == 0 {
		return nil
	}
	dstSet := map[rdf.ID]bool{}
	for _, d := range dsts {
		dstSet[d] = true
	}
	var out [][2]rdf.ID
	seen := map[[2]rdf.ID]bool{}
	for _, x := range srcs {
		for _, t1 := range kb.Description(x) {
			if kb.IsLiteral(t1.O) || isVocab(kb, t1.P) {
				continue
			}
			for _, t2 := range kb.Description(t1.O) {
				if isVocab(kb, t2.P) || !dstSet[t2.O] {
					continue
				}
				ch := [2]rdf.ID{t1.P, t2.P}
				if !seen[ch] {
					seen[ch] = true
					out = append(out, ch)
				}
			}
		}
	}
	return out
}

func isVocab(kb *rdf.Store, p rdf.ID) bool {
	return p == kb.TypeID || p == kb.LabelID || p == kb.SubClassOfID || p == kb.SubPropertyOfID
}

// normalizeEq is a tiny helper for tests comparing values.
func normalizeEq(a, b string) bool { return similarity.Normalize(a) == similarity.Normalize(b) }
