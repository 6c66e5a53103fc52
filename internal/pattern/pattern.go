// Package pattern defines KATARA's table patterns (§3.2): labelled directed
// graphs whose nodes are (column, KB type) pairs and whose edges are KB
// relationships between columns, together with the tuple-matching semantics
// (conditions 1–3) including full and partial matches.
package pattern

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"katara/internal/rdf"
	"katara/internal/similarity"
)

// Node types a table column with a KB class. Type == rdf.NoID marks an
// untyped node, i.e. a column whose cells map to literals (e.g. heights).
type Node struct {
	Column int
	Type   rdf.ID
}

// Edge is a directed relationship between two columns. From is the subject
// column, To the object column, Prop the KB property (§3.2).
type Edge struct {
	From, To int
	Prop     rdf.ID
}

// Pattern is a table pattern φ with its discovery score (§4.2). Paths holds
// the §9 extension: multi-hop relationships through intermediate resources.
type Pattern struct {
	Nodes []Node
	Edges []Edge
	Paths []PathEdge
	Score float64
}

// Clone deep-copies the pattern.
func (p *Pattern) Clone() *Pattern {
	cp := &Pattern{
		Nodes: append([]Node(nil), p.Nodes...),
		Edges: append([]Edge(nil), p.Edges...),
		Score: p.Score,
	}
	for _, pe := range p.Paths {
		cp.Paths = append(cp.Paths, PathEdge{
			From: pe.From, To: pe.To,
			Props: append([]rdf.ID(nil), pe.Props...),
		})
	}
	return cp
}

// Columns returns the sorted set of columns covered by the pattern.
func (p *Pattern) Columns() []int {
	// Collect with duplicates on the stack; only the set is returned.
	var buf [16]int
	cols := buf[:0]
	for _, n := range p.Nodes {
		cols = append(cols, n.Column)
	}
	for _, e := range p.Edges {
		cols = append(cols, e.From, e.To)
	}
	for _, pe := range p.Paths {
		cols = append(cols, pe.From, pe.To)
	}
	slices.Sort(cols)
	return slices.Clone(slices.Compact(cols))
}

// NodeFor returns the node typing column col, or nil.
func (p *Pattern) NodeFor(col int) *Node {
	for i := range p.Nodes {
		if p.Nodes[i].Column == col {
			return &p.Nodes[i]
		}
	}
	return nil
}

// TypeOf returns the type of column col, or rdf.NoID.
func (p *Pattern) TypeOf(col int) rdf.ID {
	if n := p.NodeFor(col); n != nil {
		return n.Type
	}
	return rdf.NoID
}

// EdgeBetween returns the edge from col i to col j, or nil.
func (p *Pattern) EdgeBetween(i, j int) *Edge {
	for k := range p.Edges {
		if p.Edges[k].From == i && p.Edges[k].To == j {
			return &p.Edges[k]
		}
	}
	return nil
}

// Connected reports whether the pattern graph is connected (§3.2 assumes
// table patterns are connected; disconnected components are treated as
// independent patterns).
func (p *Pattern) Connected() bool {
	cols := p.Columns()
	if len(cols) <= 1 {
		return true
	}
	adj := map[int][]int{}
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	for _, pe := range p.Paths {
		adj[pe.From] = append(adj[pe.From], pe.To)
		adj[pe.To] = append(adj[pe.To], pe.From)
	}
	seen := map[int]bool{cols[0]: true}
	queue := []int{cols[0]}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, n := range adj[c] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return len(seen) == len(cols)
}

// Components splits the pattern into connected components, each a pattern.
func (p *Pattern) Components() []*Pattern {
	cols := p.Columns()
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, c := range cols {
		parent[c] = c
	}
	for _, e := range p.Edges {
		parent[find(e.From)] = find(e.To)
	}
	byRoot := map[int]*Pattern{}
	order := []int{}
	for _, n := range p.Nodes {
		r := find(n.Column)
		if byRoot[r] == nil {
			byRoot[r] = &Pattern{}
			order = append(order, r)
		}
		byRoot[r].Nodes = append(byRoot[r].Nodes, n)
	}
	for _, e := range p.Edges {
		r := find(e.From)
		if byRoot[r] == nil {
			byRoot[r] = &Pattern{}
			order = append(order, r)
		}
		byRoot[r].Edges = append(byRoot[r].Edges, e)
	}
	out := make([]*Pattern, 0, len(order))
	for _, r := range order {
		out = append(out, byRoot[r])
	}
	return out
}

// Render pretty-prints the pattern using KB labels and column names.
func (p *Pattern) Render(kb *rdf.Store, columns []string) string {
	colName := func(c int) string {
		if c >= 0 && c < len(columns) {
			return columns[c]
		}
		return fmt.Sprintf("col%d", c)
	}
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString(", ")
		}
		if n.Type == rdf.NoID {
			fmt.Fprintf(&b, "%s(⊥)", colName(n.Column))
		} else {
			fmt.Fprintf(&b, "%s(%s)", colName(n.Column), kb.LabelOf(n.Type))
		}
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "; %s -%s-> %s", colName(e.From), kb.LabelOf(e.Prop), colName(e.To))
	}
	for _, pe := range p.Paths {
		b.WriteString("; " + pe.Render(kb, columns))
	}
	if p.Score != 0 {
		fmt.Fprintf(&b, " [score %.3f]", p.Score)
	}
	return b.String()
}

// DOT renders the pattern as a Graphviz digraph — the Fig. 2(a)
// presentation: one node per typed column labelled "col (type)", one
// labelled edge per relationship, dashed edges for §9 path relationships.
func (p *Pattern) DOT(kb *rdf.Store, columns []string) string {
	colName := func(c int) string {
		if c >= 0 && c < len(columns) {
			return columns[c]
		}
		return fmt.Sprintf("col%d", c)
	}
	var b strings.Builder
	b.WriteString("digraph pattern {\n  rankdir=LR;\n  node [shape=ellipse];\n")
	for _, n := range p.Nodes {
		label := colName(n.Column)
		if n.Type != rdf.NoID {
			label = fmt.Sprintf("%s (%s)", label, kb.LabelOf(n.Type))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.Column, label)
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.From, e.To, kb.LabelOf(e.Prop))
	}
	for _, pe := range p.Paths {
		parts := make([]string, len(pe.Props))
		for i, pr := range pe.Props {
			parts[i] = kb.LabelOf(pr)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q, style=dashed];\n",
			pe.From, pe.To, strings.Join(parts, "∘"))
	}
	b.WriteString("}\n")
	return b.String()
}

// Key returns a canonical identity string (type/edge assignments, ignoring
// score), used for deduplication in discovery.
func (p *Pattern) Key() string {
	nodes := append([]Node(nil), p.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Column < nodes[j].Column })
	edges := append([]Edge(nil), p.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Prop < edges[j].Prop
	})
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "n%d:%d;", n.Column, n.Type)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "e%d-%d:%d;", e.From, e.To, e.Prop)
	}
	paths := append([]PathEdge(nil), p.Paths...)
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].From != paths[j].From {
			return paths[i].From < paths[j].From
		}
		return paths[i].To < paths[j].To
	})
	for _, pe := range paths {
		fmt.Fprintf(&b, "p%d-%d:%v;", pe.From, pe.To, pe.Props)
	}
	return b.String()
}

// Match is the outcome of evaluating one tuple against a pattern (§3.2).
type Match struct {
	// Candidates holds, per covered column, the KB resources whose label
	// matches the cell value and whose type satisfies the node (condition 2).
	// Untyped nodes resolve to the literal ID if present in the KB.
	Candidates map[int][]rdf.ID
	// NodeOK reports condition 2 per column.
	NodeOK map[int]bool
	// EdgeOK reports condition 3 per edge index, tested independently.
	EdgeOK []bool
	// PathOK reports the §9 path-edge condition per path index.
	PathOK []bool
	// Full reports whether a single consistent resource assignment satisfies
	// every node, edge and path (t ⊨ φ).
	Full bool
	// Assignment is one witnessing resource assignment when Full.
	Assignment map[int]rdf.ID
	// Footprint records what the evaluation read from the KB, so a holder
	// can tell whether later KB growth could have changed the Match (see
	// Current).
	Footprint Footprint
}

// Footprint is the KB state a Match was evaluated against: the store's
// triple count and label generation at evaluation time, and the label hits
// each typed node's cell value resolved to. Every resource whose triples the
// evaluation read is an in-band hit of some typed node (or an untyped
// node's literal), so the hits bound what a KB mutation must touch to
// change the Match.
type Footprint struct {
	Triples  int
	LabelGen uint64
	// Hits is indexed like Pattern.Nodes; nil for untyped nodes and for
	// columns beyond the tuple. The slices may be shared with a resolver
	// memo: read-only.
	Hits [][]rdf.LabelMatch
}

// Partial reports whether the tuple partially matches: at least one node or
// edge condition holds but not all (§3.2, Example 3).
func (m *Match) Partial() bool {
	if m.Full {
		return false
	}
	any := false
	for _, ok := range m.NodeOK {
		if ok {
			any = true
		}
	}
	for _, ok := range m.EdgeOK {
		if ok {
			any = true
		}
	}
	for _, ok := range m.PathOK {
		if ok {
			any = true
		}
	}
	return any
}

// matchBand keeps only resource matches scoring within this margin of a
// cell's best match: an exact match suppresses distant fuzzy homonyms
// ("FC Springfield" must not satisfy conditions meant for "Springfield"),
// while a typo cell with no exact match still resolves through its best
// fuzzy candidates.
const matchBand = 0.1

// LabelSource resolves cell values to KB resources. *rdf.Store satisfies it,
// as does resolve.Cache; the interface is declared here (consumer side) so
// pattern does not depend on the cache package.
type LabelSource interface {
	MatchLabel(value string, threshold float64) []rdf.LabelMatch
}

// Evaluate matches tuple (indexed by column) against p over kb with the
// given label-similarity threshold.
func Evaluate(p *Pattern, kb *rdf.Store, tuple []string, threshold float64) *Match {
	return EvaluateWith(p, kb, kb, tuple, threshold)
}

// EvaluateWith is Evaluate with label resolution routed through labels —
// typically a shared memo cache — while type and edge checks still read kb
// directly. labels must resolve against kb.
func EvaluateWith(p *Pattern, kb *rdf.Store, labels LabelSource, tuple []string, threshold float64) *Match {
	m := &Match{
		Candidates: make(map[int][]rdf.ID, len(p.Nodes)),
		NodeOK:     make(map[int]bool, len(p.Nodes)),
		EdgeOK:     make([]bool, len(p.Edges)),
		Footprint: Footprint{
			Triples:  kb.NumTriples(),
			LabelGen: kb.LabelGen(),
			Hits:     make([][]rdf.LabelMatch, len(p.Nodes)),
		},
	}
	for i, n := range p.Nodes {
		if n.Column >= len(tuple) {
			continue
		}
		val := tuple[n.Column]
		var cands []rdf.ID
		if n.Type == rdf.NoID {
			if id := literalOf(kb, val); id != rdf.NoID {
				cands = []rdf.ID{id}
			}
		} else {
			hits := labels.MatchLabel(val, threshold)
			m.Footprint.Hits[i] = hits
			for _, hit := range inBand(hits) {
				if kb.HasType(hit.Resource, n.Type) {
					cands = append(cands, hit.Resource)
				}
			}
		}
		m.Candidates[n.Column] = cands
		m.NodeOK[n.Column] = len(cands) > 0
	}
	for i, e := range p.Edges {
		m.EdgeOK[i] = edgeHolds(kb, e, m.Candidates[e.From], m.Candidates[e.To])
	}
	evaluatePaths(p, kb, m)
	m.Full, m.Assignment = consistentAssignment(p, kb, m)
	return m
}

// literalOf resolves an untyped cell value to the KB literal it names, or
// rdf.NoID.
func literalOf(kb *rdf.Store, val string) rdf.ID {
	if id := kb.LookupTerm(rdf.Lit(val)); id != rdf.NoID {
		return id
	}
	return kb.LookupTerm(rdf.Lit(similarity.Normalize(val)))
}

// inBand returns the prefix of the score-sorted hits within matchBand of
// the best one.
func inBand(hits []rdf.LabelMatch) []rdf.LabelMatch {
	for i, hit := range hits {
		if hit.Score < hits[0].Score-matchBand {
			return hits[:i]
		}
	}
	return hits
}

// Growth logs triples added to a store at the granularity Match evaluation
// reads them: a resource's asserted types, the triples between one subject
// and one object, and the class and property hierarchies. Each entry is the
// store's NumTriples right after the latest such addition. The zero value
// is ready to use.
type Growth struct {
	types  map[rdf.ID]int
	pairs  map[[2]rdf.ID]int
	schema int
}

// Added logs the triple (s, p, o), just added to kb.
func (g *Growth) Added(kb *rdf.Store, s, p, o rdf.ID) {
	if g.pairs == nil {
		g.types, g.pairs = make(map[rdf.ID]int), make(map[[2]rdf.ID]int)
	}
	n := kb.NumTriples()
	g.pairs[[2]rdf.ID{s, o}] = n
	switch p {
	case kb.TypeID:
		g.types[s] = n
	case kb.SubClassOfID, kb.SubPropertyOfID:
		g.schema = n
	}
}

// Current reports whether m still equals EvaluateWith(p, kb, labels, tuple,
// threshold). The caller vouches that every triple added to kb since m was
// evaluated is logged in grown. Evaluation reads the types of in-band hits,
// the triples between edge candidates and the hierarchies, so the Match is
// current while none of those grew after m.Footprint.Triples and, when
// labelsMoved (the store's label generation changed), every typed value
// still resolves to the recorded hits and every untyped value to the same
// literal. Path patterns read intermediate resources the footprint does not
// record, so their Matches are never reported current.
func (m *Match) Current(p *Pattern, kb *rdf.Store, labels LabelSource, tuple []string, threshold float64, grown *Growth, labelsMoved bool) bool {
	fp := &m.Footprint
	since := fp.Triples
	if len(p.Paths) > 0 || len(fp.Hits) != len(p.Nodes) || grown.schema > since {
		return false
	}
	for i, n := range p.Nodes {
		if n.Column >= len(tuple) {
			continue
		}
		val := tuple[n.Column]
		if n.Type == rdf.NoID {
			if labelsMoved {
				cands, id := m.Candidates[n.Column], literalOf(kb, val)
				if (id == rdf.NoID) != (len(cands) == 0) || (id != rdf.NoID && id != cands[0]) {
					return false
				}
			}
			continue
		}
		hits := fp.Hits[i]
		if labelsMoved && !sameHits(labels.MatchLabel(val, threshold), hits) {
			return false
		}
		for _, hit := range inBand(hits) {
			if grown.types[hit.Resource] > since {
				return false
			}
		}
	}
	for _, e := range p.Edges {
		for _, s := range m.Candidates[e.From] {
			for _, o := range m.Candidates[e.To] {
				if grown.pairs[[2]rdf.ID{s, o}] > since {
					return false
				}
			}
		}
	}
	return true
}

// sameHits reports whether two label resolutions are identical.
func sameHits(a, b []rdf.LabelMatch) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func edgeHolds(kb *rdf.Store, e Edge, subs, objs []rdf.ID) bool {
	for _, s := range subs {
		for _, o := range objs {
			if kb.HasPredicate(s, e.Prop, o) {
				return true
			}
		}
	}
	return false
}

// consistentAssignment searches for one resource per column satisfying all
// nodes and edges simultaneously (condition 1's one-to-one mapping plus
// conditions 2–3). Patterns are small, so plain backtracking suffices.
func consistentAssignment(p *Pattern, kb *rdf.Store, m *Match) (bool, map[int]rdf.ID) {
	cols := p.Columns()
	for _, c := range cols {
		if len(m.Candidates[c]) == 0 {
			return false, nil
		}
	}
	assign := make(map[int]rdf.ID, len(cols))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(cols) {
			return true
		}
		c := cols[i]
		for _, r := range m.Candidates[c] {
			assign[c] = r
			ok := true
			for _, e := range p.Edges {
				sID, sOK := assign[e.From]
				oID, oOK := assign[e.To]
				if sOK && oOK && !kb.HasPredicate(sID, e.Prop, oID) {
					ok = false
					break
				}
			}
			if ok {
				for _, pe := range p.Paths {
					sID, sOK := assign[pe.From]
					oID, oOK := assign[pe.To]
					if sOK && oOK && !HasPath(kb, sID, pe.Props, oID) {
						ok = false
						break
					}
				}
			}
			if ok && rec(i+1) {
				return true
			}
		}
		delete(assign, c)
		return false
	}
	if rec(0) {
		return true, assign
	}
	return false, nil
}
