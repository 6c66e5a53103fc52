// Package discovery implements KATARA's table-pattern discovery (§4): the
// candidate type/relationship generation of §4.1 (the Q_types and Q_rels
// lookups), the tf-idf + semantic-coherence scoring model of §4.2, the
// rank-join top-k pattern search of §4.3 (Algorithms 1–2), and the three
// baselines the paper compares against (Support, MaxLike, PGM).
package discovery

import (
	"sort"

	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// Options tunes candidate generation.
type Options struct {
	// Threshold is the label-similarity threshold (default 0.7, §7).
	Threshold float64
	// Band keeps only resource matches scoring within Band of a cell's best
	// match (default 0.1) — the Lucene-style "take the top hits" behaviour.
	// An exact match therefore suppresses distant fuzzy hits, while a typo
	// cell (no exact match) still resolves through its best fuzzy matches.
	Band float64
	// MatchExponent sharpens the contribution weight of fuzzy matches:
	// weight = score^MatchExponent (default 4). Exact matches keep weight 1.
	MatchExponent int
	// MinSupport drops candidates whose weighted support is below this
	// fraction of the sampled rows (default 0.05), filtering the spurious
	// types/relationships that fuzzy label noise would otherwise inject.
	MinSupport float64
	// MinEdgeConfidence drops whole column pairs whose best relationship is
	// exhibited (weighted) by fewer than this fraction of rows (default
	// 0.15): a pattern should only assert relationships the data actually
	// carries. Low-coverage true relationships are sacrificed with it —
	// exactly the paper's University×DBpedia recall behaviour (§7.4).
	MinEdgeConfidence float64
	// MaxCandidates caps each ranked candidate list (0 = unlimited).
	MaxCandidates int
	// MaxRows samples at most this many rows per table for candidate
	// generation (0 = all rows). The paper distributes Person's 316K rows
	// over 30 machines; sampling is our single-machine equivalent.
	MaxRows int
	// Telemetry receives the KBLookups counter (one per uncached label
	// resolution); nil disables instrumentation. GenerateParallel's ranges
	// record into child pipelines merged after the join.
	Telemetry *telemetry.Pipeline
	// Resolver, when non-nil, handles label resolution instead of direct
	// kb.MatchLabel calls — typically a *resolve.Cache shared across pipeline
	// stages (and across GenerateParallel ranges) so each distinct cell value
	// hits the KB once. It must resolve against the same KB as the stats.
	Resolver resolve.Source
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = similarity.DefaultThreshold
	}
	if o.Band == 0 {
		o.Band = 0.1
	}
	if o.MatchExponent == 0 {
		o.MatchExponent = 4
	}
	if o.MinSupport == 0 {
		o.MinSupport = 0.05
	}
	if o.MinEdgeConfidence == 0 {
		o.MinEdgeConfidence = 0.15
	}
	return o
}

// ScoredType is one candidate type for a column with its normalised tf-idf
// score and raw support (number of cells resolving to that type).
type ScoredType struct {
	Type    rdf.ID
	TFIDF   float64
	Support int
}

// ScoredRel is one candidate relationship for an ordered column pair.
// Confidence is the weighted fraction of rows exhibiting the relationship;
// the coherence term of score(φ) is scaled by it, so a relationship backed
// by a handful of fuzzy matches cannot dominate the type choices of its
// endpoint columns.
type ScoredRel struct {
	Prop       rdf.ID
	TFIDF      float64
	Support    int
	Confidence float64
}

// ColumnCandidates holds the ranked candidate types of one column plus the
// per-row type memberships (type -> match weight) the scoring model and
// baselines need.
type ColumnCandidates struct {
	Col       int
	Types     []ScoredType         // descending by TFIDF, ties by discriminativeness
	CellTypes []map[rdf.ID]float64 // row -> type -> best match weight
}

// PairCandidates holds the ranked candidate relationships of one ordered
// column pair (From is the subject column, §3.2).
type PairCandidates struct {
	From, To int
	Rels     []ScoredRel
	CellRels []map[rdf.ID]float64
	// LiteralObject marks pairs whose relationships were found through
	// literal objects (Q²_rels): the To column maps to untyped literals.
	LiteralObject bool
}

// Candidates is the full candidate-generation output for one table.
type Candidates struct {
	Table   *table.Table
	Rows    []int // the sampled row indices candidate stats are built from
	Columns []ColumnCandidates
	Pairs   []PairCandidates
	Stats   *kbstats.Stats
	Options Options
}

// ColumnFor returns the candidates of column col, or nil.
func (c *Candidates) ColumnFor(col int) *ColumnCandidates {
	for i := range c.Columns {
		if c.Columns[i].Col == col {
			return &c.Columns[i]
		}
	}
	return nil
}

// PairFor returns the candidates of the ordered pair (from, to), or nil.
func (c *Candidates) PairFor(from, to int) *PairCandidates {
	for i := range c.Pairs {
		if c.Pairs[i].From == from && c.Pairs[i].To == to {
			return &c.Pairs[i]
		}
	}
	return nil
}

// weightedMatch is one resolved resource with its contribution weight.
type weightedMatch struct {
	res    rdf.ID
	weight float64
}

// Generate runs candidate type/relationship discovery for tbl against the
// KB behind stats: the evidence pass over every sampled row, then one
// scoring pass (GenerateParallel with one worker).
func Generate(tbl *table.Table, stats *kbstats.Stats, opts Options) *Candidates {
	return GenerateParallel(tbl, stats, opts, 1)
}

// evidence is the per-row output of the §4.1 lookups for the sampled rows,
// indexed by sample position: the scoring pass reads nothing else, so
// disjoint row ranges can be collected concurrently.
type evidence struct {
	// pairs are the ordered column pairs (i, j), i != j, in the order the
	// scoring pass emits them.
	pairs     [][2]int
	cellTypes [][]map[rdf.ID]float64 // [col][row] -> type -> best match weight
	cellRels  [][]map[rdf.ID]float64 // [pair][row] -> property -> weight
	// litW/resW are each row's literal- and resource-object relationship
	// weights per pair, summed in row order by the scoring pass to decide
	// PairCandidates.LiteralObject.
	litW, resW [][]float64
}

func newEvidence(cols, rows int) *evidence {
	var pairs [][2]int
	for i := 0; i < cols; i++ {
		for j := 0; j < cols; j++ {
			if i != j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	ev := &evidence{
		pairs:     pairs,
		cellTypes: make([][]map[rdf.ID]float64, cols),
		cellRels:  make([][]map[rdf.ID]float64, len(pairs)),
		litW:      make([][]float64, len(pairs)),
		resW:      make([][]float64, len(pairs)),
	}
	for c := range ev.cellTypes {
		ev.cellTypes[c] = make([]map[rdf.ID]float64, rows)
	}
	for p := range ev.cellRels {
		ev.cellRels[p] = make([]map[rdf.ID]float64, rows)
		ev.litW[p] = make([]float64, rows)
		ev.resW[p] = make([]float64, rows)
	}
	return ev
}

// collect runs the per-cell Q_types lookup (label → resource → types with
// subClassOf* closure, via the fuzzy label index standing in for LARQ) and
// the per-cell-pair Q¹_rels/Q²_rels lookups (resource-object and
// literal-object relationships, with subPropertyOf* generalisation) for
// sampled positions [lo, hi), recording KB lookups into tel.
func (ev *evidence) collect(tbl *table.Table, rows []int, lo, hi int, stats *kbstats.Stats, opts Options, tel *telemetry.Pipeline) {
	kb := stats.KB()
	src := resolve.Source(kb)
	if opts.Resolver != nil {
		src = opts.Resolver
	}

	// Per-value caches: tables are redundant, the KB is not small. The
	// weighting below is per-Options, so the weighted matches stay local even
	// when raw resolution goes through a shared opts.Resolver.
	resCache := map[string][]weightedMatch{}
	typeCache := map[string]map[rdf.ID]float64{}
	resolveVal := func(val string) []weightedMatch {
		if r, ok := resCache[val]; ok {
			return r
		}
		tel.Inc(telemetry.KBLookups)
		hits := src.MatchLabel(val, opts.Threshold)
		var out []weightedMatch
		if len(hits) > 0 {
			best := hits[0].Score
			for _, m := range hits {
				if m.Score < best-opts.Band {
					break // hits are sorted by score
				}
				w := 1.0
				for e := 0; e < opts.MatchExponent; e++ {
					w *= m.Score
				}
				out = append(out, weightedMatch{res: m.Resource, weight: w})
			}
		}
		resCache[val] = out
		return out
	}
	typesOf := func(val string) map[rdf.ID]float64 {
		if t, ok := typeCache[val]; ok {
			return t
		}
		set := map[rdf.ID]float64{}
		for _, m := range resolveVal(val) {
			for _, t := range kb.AllTypes(m.res) {
				if m.weight > set[t] {
					set[t] = m.weight
				}
			}
		}
		typeCache[val] = set
		return set
	}
	for col := range ev.cellTypes {
		for i := lo; i < hi; i++ {
			ev.cellTypes[col][i] = typesOf(tbl.Cell(rows[i], col))
		}
	}

	pairCache := map[[2]string]map[rdf.ID]float64{}
	litCache := map[[2]string]map[rdf.ID]float64{}
	relsBetween := func(a, b string) map[rdf.ID]float64 {
		key := [2]string{a, b}
		if r, ok := pairCache[key]; ok {
			return r
		}
		set := map[rdf.ID]float64{}
		for _, xi := range resolveVal(a) {
			for _, xj := range resolveVal(b) {
				w := xi.weight * xj.weight
				for _, p := range kb.PredicatesBetweenSub(xi.res, xj.res) {
					if w > set[p] {
						set[p] = w
					}
				}
			}
		}
		pairCache[key] = set
		return set
	}
	relsToLiteral := func(a, b string) map[rdf.ID]float64 {
		key := [2]string{a, b}
		if r, ok := litCache[key]; ok {
			return r
		}
		set := map[rdf.ID]float64{}
		lit := kb.LookupTerm(rdf.Lit(b))
		if lit != rdf.NoID {
			for _, xi := range resolveVal(a) {
				for _, p := range kb.PredicatesBetweenSub(xi.res, lit) {
					if xi.weight > set[p] {
						set[p] = xi.weight
					}
				}
			}
		}
		litCache[key] = set
		return set
	}
	for pi, pr := range ev.pairs {
		for i := lo; i < hi; i++ {
			a, b := tbl.Cell(rows[i], pr[0]), tbl.Cell(rows[i], pr[1])
			rels := map[rdf.ID]float64{}
			for p, w := range relsBetween(a, b) {
				rels[p] = w
				ev.resW[pi][i] += w
			}
			for p, w := range relsToLiteral(a, b) {
				if w > rels[p] {
					rels[p] = w
					ev.litW[pi][i] += w
				}
			}
			ev.cellRels[pi][i] = rels
		}
	}
}

// score is the scoring pass over the complete evidence: tf-idf ranking,
// support floors and caps per column (§4.1 Q_types) and per ordered column
// pair (Q¹/Q²_rels).
func (ev *evidence) score(c *Candidates) {
	stats, opts := c.Stats, c.Options
	n := len(c.Rows)
	minSupport := opts.MinSupport * float64(n)

	for col, cellTypes := range ev.cellTypes {
		cc := ColumnCandidates{Col: col, CellTypes: cellTypes}
		tfidf := map[rdf.ID]float64{}
		support := map[rdf.ID]int{}
		weighted := map[rdf.ID]float64{}
		for _, cellT := range cellTypes {
			idf := stats.IDF(len(cellT))
			for t, w := range cellT {
				tfidf[t] += w * stats.TF(t) * idf
				support[t]++
				weighted[t] += w
			}
		}
		maxScore := 0.0
		for t, v := range tfidf {
			if weighted[t] >= minSupport && v > maxScore {
				maxScore = v
			}
		}
		if maxScore == 0 {
			continue
		}
		for t, v := range tfidf {
			if weighted[t] < minSupport {
				continue
			}
			cc.Types = append(cc.Types, ScoredType{Type: t, TFIDF: v / maxScore, Support: support[t]})
		}
		sortTypes(cc.Types, stats)
		if opts.MaxCandidates > 0 && len(cc.Types) > opts.MaxCandidates {
			cc.Types = cc.Types[:opts.MaxCandidates]
		}
		c.Columns = append(c.Columns, cc)
	}

	for pi, pr := range ev.pairs {
		pc := PairCandidates{From: pr[0], To: pr[1], CellRels: ev.cellRels[pi]}
		tfidf := map[rdf.ID]float64{}
		support := map[rdf.ID]int{}
		weighted := map[rdf.ID]float64{}
		literalW, resourceW := 0.0, 0.0
		for i, rels := range pc.CellRels {
			literalW += ev.litW[pi][i]
			resourceW += ev.resW[pi][i]
			idf := stats.RelIDF(len(rels))
			for p, w := range rels {
				tfidf[p] += w * stats.RelTF(p) * idf
				support[p]++
				weighted[p] += w
			}
		}
		maxScore := 0.0
		for p, v := range tfidf {
			if weighted[p] >= minSupport && v > maxScore {
				maxScore = v
			}
		}
		if maxScore == 0 {
			continue
		}
		pc.LiteralObject = literalW > resourceW
		for p, v := range tfidf {
			if weighted[p] < minSupport {
				continue
			}
			pc.Rels = append(pc.Rels, ScoredRel{
				Prop:       p,
				TFIDF:      v / maxScore,
				Support:    support[p],
				Confidence: weighted[p] / float64(n),
			})
		}
		sortRels(pc.Rels, stats)
		if opts.MaxCandidates > 0 && len(pc.Rels) > opts.MaxCandidates {
			pc.Rels = pc.Rels[:opts.MaxCandidates]
		}
		best := 0.0
		for _, r := range pc.Rels {
			if r.Confidence > best {
				best = r.Confidence
			}
		}
		if best < opts.MinEdgeConfidence {
			continue
		}
		c.Pairs = append(c.Pairs, pc)
	}
}

// sortTypes orders candidates by tf-idf descending; ties go to the more
// discriminative type, i.e. fewer instances in the KB (§4.3). Types with
// identical extensions (a class and its only-child superclass) tie-break to
// the subclass — the most specific description of the column.
func sortTypes(ts []ScoredType, stats *kbstats.Stats) {
	kb := stats.KB()
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].TFIDF != ts[j].TFIDF {
			return ts[i].TFIDF > ts[j].TFIDF
		}
		ni, nj := stats.EntitiesOfType(ts[i].Type), stats.EntitiesOfType(ts[j].Type)
		if ni != nj {
			return ni < nj
		}
		if kb.IsSubClassOf(ts[i].Type, ts[j].Type) != kb.IsSubClassOf(ts[j].Type, ts[i].Type) {
			return kb.IsSubClassOf(ts[i].Type, ts[j].Type)
		}
		return ts[i].Type < ts[j].Type
	})
}

func sortRels(rs []ScoredRel, stats *kbstats.Stats) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].TFIDF != rs[j].TFIDF {
			return rs[i].TFIDF > rs[j].TFIDF
		}
		ni, nj := stats.NumFacts(rs[i].Prop), stats.NumFacts(rs[j].Prop)
		if ni != nj {
			return ni < nj
		}
		return rs[i].Prop < rs[j].Prop
	})
}

func sampleRows(n, max int) []int {
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Deterministic stride sampling: evenly spaced rows.
	out := make([]int, max)
	for i := 0; i < max; i++ {
		out[i] = i * n / max
	}
	return out
}
