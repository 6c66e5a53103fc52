// Package repair implements KATARA's top-k possible-repair generation
// (§6.2): instance graphs of the validated pattern are materialised from the
// KB, indexed by inverted lists keyed on (attribute, value), and each
// erroneous tuple is aligned against the candidate graphs retrieved through
// the lists, ranked by repair cost (Algorithm 4).
package repair

import (
	"fmt"
	"sort"

	"katara/internal/fanout"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/telemetry"
)

// InstanceGraph is an instantiation of a table pattern in the KB (§6.2): one
// resource per pattern node such that every edge property holds.
type InstanceGraph struct {
	ID int
	// Resource maps column -> KB resource (or literal for untyped nodes).
	Resource map[int]rdf.ID
	// Value maps column -> display value (the resource's label).
	Value map[int]string
}

// Change is one cell update suggested by a repair.
type Change struct {
	Col      int
	From, To string
}

// Repair is one candidate repair: align the tuple to Graph at cost
// |Changes| (unit costs by default; see Options.Weights).
type Repair struct {
	Graph   *InstanceGraph
	Cost    float64
	Changes []Change
}

// Options configures index construction and retrieval.
type Options struct {
	// MaxGraphs caps instance-graph enumeration (0 = unlimited). When the
	// cap trips, the index is partial and recall degrades gracefully.
	MaxGraphs int
	// Weights holds optional per-column change costs (§6.2: "the cost can
	// also be weighted with confidences on data values"). Missing columns
	// cost 1.
	Weights map[int]float64
	// Workers splits instance-graph enumeration into that many contiguous
	// ranges of root resources; <= 1 enumerates serially. Ranges merge in
	// root order and truncate at MaxGraphs, so the index is identical for
	// every worker count.
	Workers int
	// Telemetry receives the GraphsEnumerated / RepairsGenerated counters;
	// nil disables instrumentation.
	Telemetry *telemetry.Pipeline
}

// Index holds the instance graphs of one pattern and their inverted lists.
type Index struct {
	Pattern *pattern.Pattern
	Graphs  []InstanceGraph
	lists   map[listKey][]int // (col, normalised value) -> graph IDs
	opts    Options
	cols    []int
}

type listKey struct {
	col int
	val string
}

// BuildIndex enumerates every instance graph of p in kb and builds the
// inverted lists. Graph enumeration walks the pattern from its most
// selective typed node outward along edges, so the work is proportional to
// the number of real instance graphs, not the Cartesian product.
func BuildIndex(kb *rdf.Store, p *pattern.Pattern, opts Options) *Index {
	ix := &Index{
		Pattern: p,
		lists:   make(map[listKey][]int),
		opts:    opts,
		cols:    p.Columns(),
	}
	for _, g := range enumerate(kb, p, opts.MaxGraphs, opts.Workers) {
		g.ID = len(ix.Graphs)
		opts.Telemetry.Inc(telemetry.GraphsEnumerated)
		g.Value = make(map[int]string, len(g.Resource))
		for col, r := range g.Resource {
			if kb.IsLiteral(r) {
				g.Value[col] = kb.Term(r).Value
			} else {
				g.Value[col] = kb.LabelOf(r)
			}
		}
		ix.Graphs = append(ix.Graphs, g)
		for col, v := range g.Value {
			k := listKey{col, similarity.Normalize(v)}
			ix.lists[k] = append(ix.lists[k], g.ID)
		}
	}
	return ix
}

// NumGraphs returns the number of indexed instance graphs.
func (ix *Index) NumGraphs() int { return len(ix.Graphs) }

// WithTelemetry returns a shallow view of the index whose retrieval
// telemetry (repair-topk histogram/spans, RepairsGenerated) lands in tel
// instead of the pipeline the index was built with. Graphs and inverted
// lists are shared read-only — this is the per-range handle of the
// retrieval fan-out, each range recording into its own pipeline.
func (ix *Index) WithTelemetry(tel *telemetry.Pipeline) *Index {
	cp := *ix
	cp.opts.Telemetry = tel
	return &cp
}

// PostingList returns the graph IDs holding value v on column col — exposed
// for tests and the Example 13 walkthrough.
func (ix *Index) PostingList(col int, v string) []int {
	return ix.lists[listKey{col, similarity.Normalize(v)}]
}

// TopK implements Algorithm 4 with Example 13's counting evaluation: each
// posting-list hit contributes the column's weight to a per-graph agreement
// score, the repair cost is the graph's total covered weight minus its
// agreement, and only the k cheapest graphs are aligned to materialise
// their Changes. Ties break by graph ID for determinism.
func (ix *Index) TopK(tuple []string, k int) []Repair {
	reps, _ := ix.TopKStats(tuple, k)
	return reps
}

// TopKStats is TopK plus the number of candidate graphs the inverted lists
// retrieved before truncation to k — the "considered" figure a repair's
// provenance records alongside the kept candidates.
func (ix *Index) TopKStats(tuple []string, k int) ([]Repair, int) {
	if k <= 0 {
		return nil, 0
	}
	tkStart := ix.opts.Telemetry.StartTimer()
	tkSpan := ix.opts.Telemetry.StartSpan("repair-topk")
	// Agreement per graph via the inverted lists (Example 13: "the
	// occurrences of instance graphs G1 and G2 are 5 and 1").
	agree := map[int]float64{}
	for _, col := range ix.cols {
		if col >= len(tuple) {
			continue
		}
		w := ix.weight(col)
		for _, id := range ix.PostingList(col, tuple[col]) {
			agree[id] += w
		}
	}
	type scored struct {
		id   int
		cost float64
	}
	cands := make([]scored, 0, len(agree))
	for id, a := range agree {
		cands = append(cands, scored{id: id, cost: ix.coveredWeight(&ix.Graphs[id], tuple) - a})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	repairs := make([]Repair, 0, len(cands))
	for _, s := range cands {
		rep, _ := ix.align(tuple, &ix.Graphs[s.id])
		repairs = append(repairs, rep)
	}
	ix.opts.Telemetry.Add(telemetry.RepairsGenerated, int64(len(repairs)))
	tkSpan.SetInt("candidates", int64(len(agree)))
	tkSpan.SetInt("repairs", int64(len(repairs)))
	tkSpan.End()
	ix.opts.Telemetry.ObserveSince(telemetry.HistRepairTopK, tkStart)
	return repairs, len(agree)
}

// weight returns the change cost of a column.
func (ix *Index) weight(col int) float64 {
	if ix.opts.Weights != nil {
		if w, ok := ix.opts.Weights[col]; ok {
			return w
		}
	}
	return 1
}

// coveredWeight is the total weight of the columns on which graph g and the
// tuple are comparable — the maximum possible cost of aligning to g.
func (ix *Index) coveredWeight(g *InstanceGraph, tuple []string) float64 {
	total := 0.0
	for _, col := range ix.cols {
		if col >= len(tuple) {
			continue
		}
		if _, ok := g.Value[col]; ok {
			total += ix.weight(col)
		}
	}
	return total
}

// TopKNaive computes repairs against every instance graph without the
// inverted lists — the baseline Algorithm 4 improves on ("too slow in
// practice"), kept for the ablation benchmark and for correctness checks.
// Graphs sharing no value with the tuple are skipped, matching TopK: an
// alignment that rewrites every cell is a wholesale row replacement, not a
// repair, and the inverted lists never retrieve such graphs.
func (ix *Index) TopKNaive(tuple []string, k int) []Repair {
	if k <= 0 {
		return nil
	}
	repairs := make([]Repair, 0, len(ix.Graphs))
	for i := range ix.Graphs {
		rep, matched := ix.align(tuple, &ix.Graphs[i])
		if matched == 0 {
			continue
		}
		repairs = append(repairs, rep)
	}
	sort.Slice(repairs, func(i, j int) bool {
		if repairs[i].Cost != repairs[j].Cost {
			return repairs[i].Cost < repairs[j].Cost
		}
		return repairs[i].Graph.ID < repairs[j].Graph.ID
	})
	if len(repairs) > k {
		repairs = repairs[:k]
	}
	return repairs
}

// align computes the repair aligning tuple to g (§6.2's cost(t, φ, G)) and
// the number of comparable columns on which tuple and g already agree.
func (ix *Index) align(tuple []string, g *InstanceGraph) (Repair, int) {
	r := Repair{Graph: g}
	matched := 0
	for _, col := range ix.cols {
		gv, ok := g.Value[col]
		if !ok || col >= len(tuple) {
			continue
		}
		if similarity.Normalize(tuple[col]) == similarity.Normalize(gv) {
			matched++
			continue
		}
		r.Cost += ix.weight(col)
		r.Changes = append(r.Changes, Change{Col: col, From: tuple[col], To: gv})
	}
	return r, matched
}

// enumerate materialises the instance graphs of p, fanning the root
// resources out over workers contiguous ranges. Each range enumerates its
// roots exactly like the serial loop, capped at maxGraphs; the ranges then
// concatenate in root order and truncate at maxGraphs. A range's output is a
// prefix of the serial output restricted to its roots, so the merged prefix
// is exactly the serial output for any worker count.
func enumerate(kb *rdf.Store, p *pattern.Pattern, maxGraphs, workers int) []InstanceGraph {
	cols := p.Columns()
	if len(cols) == 0 {
		return nil
	}
	// Choose traversal order: start from the typed column with the fewest
	// instances, then repeatedly expand across edges; disconnected typed
	// columns fall back to full instance scans.
	order, via := traversalPlan(kb, p, cols)
	roots := candidatesFor(kb, p, order[0], nil, nil)
	if fanout.Splits(len(roots), workers) {
		// The workers only read the KB: force its lazily-memoised hierarchy
		// closures up front.
		kb.WarmClosures()
	}
	perRange := make([][]InstanceGraph, max(1, workers))
	fanout.Run("repair-enumerate", len(roots), workers, nil, nil, func(part fanout.Part) {
		var out []InstanceGraph
		for _, root := range roots[part.Lo:part.Hi] {
			e := &enumerator{kb: kb, p: p, order: order, via: via, max: maxGraphs - len(out)}
			if maxGraphs == 0 {
				e.max = 0
			}
			out = append(out, e.fromRoot(root)...)
			if maxGraphs > 0 && len(out) >= maxGraphs {
				break
			}
		}
		perRange[part.Index] = out
	})
	out := perRange[0]
	for _, gs := range perRange[1:] {
		if maxGraphs > 0 && len(out) >= maxGraphs {
			break
		}
		out = append(out, gs...)
	}
	if maxGraphs > 0 && len(out) > maxGraphs {
		out = out[:maxGraphs]
	}
	return out
}

// enumerator is one depth-first expansion of the traversal plan. max caps
// the number of graphs produced (0 = unlimited).
type enumerator struct {
	kb     *rdf.Store
	p      *pattern.Pattern
	order  []int
	via    map[int]*edgeRef
	max    int
	out    []InstanceGraph
	assign map[int]rdf.ID
}

// fromRoot enumerates every instance graph whose root column takes resource
// root, in deterministic depth-first order.
func (e *enumerator) fromRoot(root rdf.ID) []InstanceGraph {
	e.out = nil
	e.assign = map[int]rdf.ID{e.order[0]: root}
	if e.edgesHold() {
		e.rec(1)
	}
	return e.out
}

// edgesHold verifies every pattern edge whose endpoints are both assigned.
func (e *enumerator) edgesHold() bool {
	for i := range e.p.Edges {
		ed := &e.p.Edges[i]
		s, sOK := e.assign[ed.From]
		o, oOK := e.assign[ed.To]
		if sOK && oOK && !e.kb.HasPredicate(s, ed.Prop, o) {
			return false
		}
	}
	return true
}

func (e *enumerator) rec(step int) bool {
	if e.max > 0 && len(e.out) >= e.max {
		return false
	}
	if step == len(e.order) {
		cp := make(map[int]rdf.ID, len(e.assign))
		for k, v := range e.assign {
			cp[k] = v
		}
		e.out = append(e.out, InstanceGraph{Resource: cp})
		return true
	}
	col := e.order[step]
	for _, cand := range candidatesFor(e.kb, e.p, col, e.via[col], e.assign) {
		e.assign[col] = cand
		if e.edgesHold() {
			if !e.rec(step + 1) {
				delete(e.assign, col)
				return false
			}
		}
		delete(e.assign, col)
	}
	return true
}

// edgeRef points at the pattern edge used to reach a column during
// enumeration, and in which direction.
type edgeRef struct {
	edge    *pattern.Edge
	forward bool // true: we know the subject, enumerate objects
}

func traversalPlan(kb *rdf.Store, p *pattern.Pattern, cols []int) ([]int, map[int]*edgeRef) {
	via := map[int]*edgeRef{}
	visited := map[int]bool{}
	var order []int

	pickRoot := func() (int, bool) {
		best, bestN := -1, 0
		for _, c := range cols {
			if visited[c] {
				continue
			}
			n := 1 << 30 // untyped columns are hard roots; prefer typed ones
			if t := p.TypeOf(c); t != rdf.NoID {
				n = len(kb.InstancesOf(t))
			}
			if best == -1 || n < bestN {
				best, bestN = c, n
			}
		}
		if best == -1 {
			return 0, false
		}
		return best, true
	}

	for {
		root, ok := pickRoot()
		if !ok {
			break
		}
		visited[root] = true
		order = append(order, root)
		// BFS expansion over edges.
		queue := []int{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for i := range p.Edges {
				e := &p.Edges[i]
				var next int
				var fwd bool
				switch {
				case e.From == cur && !visited[e.To]:
					next, fwd = e.To, true
				case e.To == cur && !visited[e.From]:
					next, fwd = e.From, false
				default:
					continue
				}
				visited[next] = true
				via[next] = &edgeRef{edge: e, forward: fwd}
				order = append(order, next)
				queue = append(queue, next)
			}
		}
	}
	return order, via
}

// candidatesFor lists the possible resources for col, either through the
// edge that reached it or from its type's instance list.
func candidatesFor(kb *rdf.Store, p *pattern.Pattern, col int, ref *edgeRef, assign map[int]rdf.ID) []rdf.ID {
	typ := p.TypeOf(col)
	if ref != nil {
		var cands []rdf.ID
		if ref.forward {
			subj := assign[ref.edge.From]
			cands = withSubProperties(kb, ref.edge.Prop, func(prop rdf.ID) []rdf.ID {
				return kb.Objects(subj, prop)
			})
		} else {
			obj := assign[ref.edge.To]
			cands = withSubProperties(kb, ref.edge.Prop, func(prop rdf.ID) []rdf.ID {
				return kb.Subjects(prop, obj)
			})
		}
		if typ == rdf.NoID {
			return cands
		}
		var out []rdf.ID
		for _, c := range cands {
			if !kb.IsLiteral(c) && kb.HasType(c, typ) {
				out = append(out, c)
			}
		}
		return out
	}
	if typ == rdf.NoID {
		return nil // an untyped column not reachable via an edge is unenumerable
	}
	return kb.InstancesOf(typ)
}

// withSubProperties unions f over prop and its sub-properties (condition 3).
func withSubProperties(kb *rdf.Store, prop rdf.ID, f func(rdf.ID) []rdf.ID) []rdf.ID {
	props := append([]rdf.ID{prop}, kb.SubProperties(prop)...)
	set := map[rdf.ID]bool{}
	var out []rdf.ID
	for _, pr := range props {
		for _, id := range f(pr) {
			if !set[id] {
				set[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders a repair for logs and the CLI.
func (r Repair) String() string {
	s := fmt.Sprintf("cost=%g", r.Cost)
	for _, c := range r.Changes {
		s += fmt.Sprintf(" col%d:%q→%q", c.Col, c.From, c.To)
	}
	return s
}
