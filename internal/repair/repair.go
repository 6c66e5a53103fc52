// Package repair implements KATARA's top-k possible-repair generation
// (§6.2): instance graphs of the validated pattern are materialised from the
// KB, indexed by inverted lists keyed on (attribute, value), and each
// erroneous tuple is aligned against the candidate graphs retrieved through
// the lists, ranked by repair cost (Algorithm 4).
package repair

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

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
	// Weights holds optional per-column change costs (§6.2: "the cost can
	// also be weighted with confidences on data values"). Missing columns
	// cost 1.
	Weights map[int]float64
	// Workers splits instance-graph enumeration into that many contiguous
	// ranges of root resources; <= 1 enumerates serially. Ranges merge in
	// root order, so the index is identical for every worker count.
	Workers int
	// Telemetry receives the GraphsEnumerated / RepairsGenerated counters;
	// nil disables instrumentation.
	Telemetry *telemetry.Pipeline
}

// Index holds the instance graphs of one pattern and their inverted lists,
// keyed by value numbers: per pattern column, each distinct normalised graph
// value gets a number, its posting list is the slice at that number, and
// every graph's number on every column sits in one flat slice. Retrieval
// compares numbers, so it never normalises a graph value again.
//
// The index is read-only once built: TopKStats is safe for concurrent
// callers, each taking its working set from the pool.
type Index struct {
	Pattern *pattern.Pattern
	Graphs  []InstanceGraph
	opts    Options
	cols    []int
	weights []float64          // column position -> change cost of cols[j]
	numbers []map[string]int32 // column position -> normalised value -> number
	posts   [][][]int          // column position -> number -> graph IDs ascending
	vals    []int32            // graph ID·len(cols) + position -> number, -1 = no value
	pool    *sync.Pool         // *scratch, shared by every WithTelemetry view
}

// scratch is one TopKStats call's working set. agree and seen stay
// all-zero between calls (the touched entries are reset before release), so
// a pooled scratch only pays for its first sizing.
type scratch struct {
	agree   []float64 // graph ID -> agreement (Example 13's occurrences, weighted)
	seen    []bool    // graph ID -> retrieved by some posting list of the tuple
	touched []int     // IDs with seen set, in retrieval order
	tnum    []int32   // column position -> the tuple cell's number, -1 = none
	kept    []scored  // every candidate, then sorted and cut to the k cheapest
}

// scored is a retrieved graph and its counting cost.
type scored struct {
	id   int
	cost float64
}

// compare orders candidates by (cost, graph ID), the ranking's total order.
func (a scored) compare(b scored) int {
	if c := cmp.Compare(a.cost, b.cost); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// BuildIndex enumerates every instance graph of p in kb and builds the
// inverted lists. Graph enumeration walks the pattern from its most
// selective typed node outward along edges, so the work is proportional to
// the number of real instance graphs, not the Cartesian product. Values are
// numbered per column in graph order, so the numbering is as deterministic
// as the graphs.
func BuildIndex(kb *rdf.Store, p *pattern.Pattern, opts Options) *Index {
	ix := &Index{
		Pattern: p,
		opts:    opts,
		cols:    p.Columns(),
		pool:    &sync.Pool{New: func() any { return &scratch{} }},
	}
	nc := len(ix.cols)
	ix.weights = make([]float64, nc)
	ix.numbers = make([]map[string]int32, nc)
	ix.posts = make([][][]int, nc)
	for j, col := range ix.cols {
		ix.weights[j] = ix.weight(col)
		ix.numbers[j] = make(map[string]int32)
	}
	for _, g := range enumerate(kb, p, opts.Workers) {
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
		for j, col := range ix.cols {
			v, ok := g.Value[col]
			if !ok {
				ix.vals = append(ix.vals, -1)
				continue
			}
			n := similarity.Normalize(v)
			num, ok := ix.numbers[j][n]
			if !ok {
				num = int32(len(ix.posts[j]))
				ix.numbers[j][n] = num
				ix.posts[j] = append(ix.posts[j], nil)
			}
			ix.posts[j][num] = append(ix.posts[j][num], g.ID)
			ix.vals = append(ix.vals, num)
		}
	}
	return ix
}

// NumGraphs returns the number of indexed instance graphs.
func (ix *Index) NumGraphs() int { return len(ix.Graphs) }

// WithTelemetry returns a shallow view of the index whose retrieval
// telemetry (repair-topk histogram/spans, RepairsGenerated) lands in tel
// instead of the pipeline the index was built with. Graphs, inverted lists
// and the scratch pool are shared — this is the per-range handle of the
// retrieval fan-out, each range recording into its own pipeline.
func (ix *Index) WithTelemetry(tel *telemetry.Pipeline) *Index {
	cp := *ix
	cp.opts.Telemetry = tel
	return &cp
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
//
// Each tuple cell is normalised once and mapped to its column's value
// number; agreement accumulates in the pooled dense scratch. A graph is a
// candidate when some posting list of the tuple holds it, even through a
// zero-weight column. Covered weight and agreement are summed in a fixed
// order (columns in pattern order, each column's hits in graph-ID order),
// so every ranking cost is a deterministic float, and a kept repair's Cost
// is align's sum over its changed columns. The candidates are sorted by
// (cost, ID) in the pooled slice and only the k cheapest are aligned, by
// comparing numbers.
func (ix *Index) TopKStats(tuple []string, k int) ([]Repair, int) {
	if k <= 0 {
		return nil, 0
	}
	tkStart := ix.opts.Telemetry.StartTimer()
	tkSpan := ix.opts.Telemetry.StartSpan("repair-topk")
	sc := ix.pool.Get().(*scratch)
	if n := len(ix.Graphs); len(sc.agree) < n {
		sc.agree = make([]float64, n)
		sc.seen = make([]bool, n)
	}
	// Agreement per graph via the inverted lists (Example 13: "the
	// occurrences of instance graphs G1 and G2 are 5 and 1").
	sc.tnum = sc.tnum[:0]
	for j, col := range ix.cols {
		num := int32(-1)
		if col < len(tuple) {
			if n, ok := ix.numbers[j][similarity.Normalize(tuple[col])]; ok {
				num = n
			}
		}
		sc.tnum = append(sc.tnum, num)
		if num < 0 {
			continue
		}
		w := ix.weights[j]
		for _, id := range ix.posts[j][num] {
			if !sc.seen[id] {
				sc.seen[id] = true
				sc.touched = append(sc.touched, id)
			}
			sc.agree[id] += w
		}
	}
	considered := len(sc.touched)
	sc.kept = sc.kept[:0]
	for _, id := range sc.touched {
		sc.kept = append(sc.kept, scored{id: id, cost: ix.coveredWeight(id, len(tuple)) - sc.agree[id]})
		sc.agree[id], sc.seen[id] = 0, false
	}
	slices.SortFunc(sc.kept, scored.compare)
	sc.kept = sc.kept[:min(k, len(sc.kept))]
	repairs := make([]Repair, 0, len(sc.kept))
	for _, c := range sc.kept {
		repairs = append(repairs, ix.alignNumbers(tuple, c.id, sc.tnum))
	}
	sc.touched = sc.touched[:0]
	ix.pool.Put(sc)
	ix.opts.Telemetry.Add(telemetry.RepairsGenerated, int64(len(repairs)))
	tkSpan.SetInt("candidates", int64(considered))
	tkSpan.SetInt("repairs", int64(len(repairs)))
	tkSpan.End()
	ix.opts.Telemetry.ObserveSince(telemetry.HistRepairTopK, tkStart)
	return repairs, considered
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

// coveredWeight is the total weight of the columns on which graph id and a
// tuple of width n are comparable — the maximum possible cost of aligning
// to the graph.
func (ix *Index) coveredWeight(id, n int) float64 {
	total := 0.0
	row := ix.vals[id*len(ix.cols):][:len(ix.cols)]
	for j, col := range ix.cols {
		if col < n && row[j] >= 0 {
			total += ix.weights[j]
		}
	}
	return total
}

// alignNumbers is align for graph id on value numbers: tnum holds the
// tuple's number per column position. It returns the same Repair as align,
// with Changes allocated once at their final length.
func (ix *Index) alignNumbers(tuple []string, id int, tnum []int32) Repair {
	g := &ix.Graphs[id]
	r := Repair{Graph: g}
	row := ix.vals[id*len(ix.cols):][:len(ix.cols)]
	differs := func(j, col int) bool { return row[j] >= 0 && col < len(tuple) && row[j] != tnum[j] }
	changes := 0
	for j, col := range ix.cols {
		if differs(j, col) {
			changes++
		}
	}
	if changes == 0 {
		return r
	}
	r.Changes = make([]Change, 0, changes)
	for j, col := range ix.cols {
		if differs(j, col) {
			r.Cost += ix.weights[j]
			r.Changes = append(r.Changes, Change{Col: col, From: tuple[col], To: g.Value[col]})
		}
	}
	return r
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
// roots exactly like the serial loop, and the ranges concatenate in root
// order, so the result is exactly the serial output for any worker count.
func enumerate(kb *rdf.Store, p *pattern.Pattern, workers int) []InstanceGraph {
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
		e := &enumerator{kb: kb, p: p, order: order, via: via}
		for _, root := range roots[part.Lo:part.Hi] {
			e.fromRoot(root)
		}
		perRange[part.Index] = e.out
	})
	out := perRange[0]
	for _, gs := range perRange[1:] {
		out = append(out, gs...)
	}
	return out
}

// enumerator is one depth-first expansion of the traversal plan.
type enumerator struct {
	kb     *rdf.Store
	p      *pattern.Pattern
	order  []int
	via    map[int]*edgeRef
	out    []InstanceGraph
	assign map[int]rdf.ID
}

// fromRoot appends every instance graph whose root column takes resource
// root to e.out, in deterministic depth-first order.
func (e *enumerator) fromRoot(root rdf.ID) {
	e.assign = map[int]rdf.ID{e.order[0]: root}
	if e.edgesHold() {
		e.rec(1)
	}
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

func (e *enumerator) rec(step int) {
	if step == len(e.order) {
		cp := make(map[int]rdf.ID, len(e.assign))
		for k, v := range e.assign {
			cp[k] = v
		}
		e.out = append(e.out, InstanceGraph{Resource: cp})
		return
	}
	col := e.order[step]
	for _, cand := range candidatesFor(e.kb, e.p, col, e.via[col], e.assign) {
		e.assign[col] = cand
		if e.edgesHold() {
			e.rec(step + 1)
		}
		delete(e.assign, col)
	}
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
