package discovery

import (
	"math"

	"katara/internal/pattern"
	"katara/internal/rdf"
)

// This file implements the PGM baseline (§7.1, after Limaye et al. [28]):
// a probabilistic graphical model over column-type variables, column-pair
// relationship variables and per-cell entity variables, solved with loopy
// max-product belief propagation.
//
// The model is deliberately faithful to the reference design, including the
// per-cell entity variables — which is precisely why it is orders of
// magnitude slower than the other discovery algorithms (Table 3: hours on
// ~1K-tuple tables, N.A. on Person).

// The belief-propagation schedule: pgmIterations sweeps with messages
// damped by pgmDamping in [0,1).
const (
	pgmIterations = 25
	pgmDamping    = 0.3
)

// PGMOptions tunes the belief-propagation run.
type PGMOptions struct {
	// MaxCells aborts (returns nil) when the reference model — which holds
	// one variable per *table cell* — would exceed this many cell
	// variables, standing in for the paper's "cannot finish within one day"
	// at Person scale (0 = no limit). The full table size is used even when
	// candidate generation sampled rows: the real PGM has no such escape.
	MaxCells int
}

// pgmVar is one variable node with its unary log-potential.
type pgmVar struct {
	domain int
	unary  []float64
	belief []float64
}

// pgmFactor couples two variables with a log-potential table.
type pgmFactor struct {
	a, b   int         // variable indices
	logPsi [][]float64 // [a-state][b-state]
	msgToA []float64
	msgToB []float64
}

// PGMTopK runs loopy BP over the factor graph induced by the candidates and
// returns up to k patterns ranked by their summed max-marginal beliefs.
// It returns nil when the model exceeds opts.MaxCells.
func PGMTopK(c *Candidates, k int, opts PGMOptions) []*pattern.Pattern {
	kb := c.Stats.KB()

	if opts.MaxCells > 0 {
		cells := c.Table.NumRows() * len(c.Columns)
		if cells > opts.MaxCells {
			return nil
		}
	}

	var vars []*pgmVar
	var factors []*pgmFactor

	// Column type variables: unary from coverage likelihood.
	typeVar := map[int]int{} // column -> var index
	for i := range c.Columns {
		cc := &c.Columns[i]
		v := &pgmVar{domain: len(cc.Types), unary: make([]float64, len(cc.Types))}
		n := float64(len(c.Rows))
		for j, t := range cc.Types {
			cov := float64(t.Support) / math.Max(n, 1)
			size := float64(c.Stats.EntitiesOfType(t.Type))
			if size < 1 {
				size = 1
			}
			// log P(column | T): coverage reward, specificity reward.
			v.unary[j] = 3*cov - 0.1*math.Log(size)
		}
		typeVar[cc.Col] = len(vars)
		vars = append(vars, v)
	}

	// Pair relationship variables: unary from coverage.
	relVar := make([]int, len(c.Pairs))
	for i := range c.Pairs {
		pc := &c.Pairs[i]
		v := &pgmVar{domain: len(pc.Rels), unary: make([]float64, len(pc.Rels))}
		n := float64(len(c.Rows))
		for j, r := range pc.Rels {
			v.unary[j] = 3 * float64(r.Support) / math.Max(n, 1)
		}
		relVar[i] = len(vars)
		vars = append(vars, v)
	}

	// Type↔relationship compatibility factors (KB co-occurrence).
	for i := range c.Pairs {
		pc := &c.Pairs[i]
		if tv, ok := typeVar[pc.From]; ok {
			cc := c.ColumnFor(pc.From)
			psi := make([][]float64, len(cc.Types))
			for a, t := range cc.Types {
				psi[a] = make([]float64, len(pc.Rels))
				for b, r := range pc.Rels {
					psi[a][b] = 2 * c.Stats.SubSC(t.Type, r.Prop)
				}
			}
			factors = append(factors, newFactor(tv, relVar[i], psi))
		}
		if tv, ok := typeVar[pc.To]; ok && !pc.LiteralObject {
			cc := c.ColumnFor(pc.To)
			psi := make([][]float64, len(cc.Types))
			for a, t := range cc.Types {
				psi[a] = make([]float64, len(pc.Rels))
				for b, r := range pc.Rels {
					psi[a][b] = 2 * c.Stats.ObjSC(t.Type, r.Prop)
				}
			}
			factors = append(factors, newFactor(tv, relVar[i], psi))
		}
	}

	// Per-cell entity variables coupled to their column's type variable —
	// the expensive part of the reference model.
	threshold := c.Options.Threshold
	for i := range c.Columns {
		cc := &c.Columns[i]
		tv := typeVar[cc.Col]
		colTypes := c.Columns[i].Types
		for _, row := range c.Rows {
			val := c.Table.Cell(row, cc.Col)
			var ents []rdf.ID
			for _, m := range kb.MatchLabel(val, threshold) {
				ents = append(ents, m.Resource)
			}
			if len(ents) == 0 {
				continue
			}
			ev := &pgmVar{domain: len(ents), unary: make([]float64, len(ents))}
			evIdx := len(vars)
			vars = append(vars, ev)
			psi := make([][]float64, len(ents))
			for a, ent := range ents {
				psi[a] = make([]float64, len(colTypes))
				for b, t := range colTypes {
					if kb.HasType(ent, t.Type) {
						psi[a][b] = 1
					} else {
						psi[a][b] = -2
					}
				}
			}
			factors = append(factors, newFactor(evIdx, tv, psi))
		}
	}

	if len(vars) == 0 {
		return nil
	}
	runBP(vars, factors)

	// Rank patterns by beliefs via the shared best-first machinery.
	shadow := reScore(c,
		func(cc *ColumnCandidates, t ScoredType) float64 {
			v := vars[typeVar[cc.Col]]
			for j, cand := range c.ColumnFor(cc.Col).Types {
				if cand.Type == t.Type {
					return v.belief[j]
				}
			}
			return math.Inf(-1)
		},
		func(pc *PairCandidates, r ScoredRel) float64 {
			var idx int
			for i := range c.Pairs {
				if c.Pairs[i].From == pc.From && c.Pairs[i].To == pc.To {
					idx = i
					break
				}
			}
			v := vars[relVar[idx]]
			for j, cand := range c.Pairs[idx].Rels {
				if cand.Prop == r.Prop {
					return v.belief[j]
				}
			}
			return math.Inf(-1)
		},
		nil, nil,
	)
	for i := range shadow.Columns {
		shiftTypes(shadow.Columns[i].Types)
	}
	for i := range shadow.Pairs {
		shiftRels(shadow.Pairs[i].Rels)
	}
	return TopKNaive(shadow, k)
}

func newFactor(a, b int, psi [][]float64) *pgmFactor {
	return &pgmFactor{
		a: a, b: b, logPsi: psi,
		msgToA: make([]float64, len(psi)),
		msgToB: make([]float64, len(psi[0])),
	}
}

// runBP performs damped loopy max-product BP and fills vars[i].belief.
func runBP(vars []*pgmVar, factors []*pgmFactor) {
	// incoming[v] lists factors touching v.
	incoming := make([][]*pgmFactor, len(vars))
	for _, f := range factors {
		incoming[f.a] = append(incoming[f.a], f)
		incoming[f.b] = append(incoming[f.b], f)
	}
	varMsg := func(v int, except *pgmFactor, x int) float64 {
		s := vars[v].unary[x]
		for _, f := range incoming[v] {
			if f == except {
				continue
			}
			if f.a == v {
				s += f.msgToA[x]
			} else {
				s += f.msgToB[x]
			}
		}
		return s
	}
	for it := 0; it < pgmIterations; it++ {
		for _, f := range factors {
			// message factor -> a
			for x := 0; x < len(f.msgToA); x++ {
				best := math.Inf(-1)
				for y := 0; y < len(f.msgToB); y++ {
					if v := f.logPsi[x][y] + varMsg(f.b, f, y); v > best {
						best = v
					}
				}
				f.msgToA[x] = pgmDamping*f.msgToA[x] + (1-pgmDamping)*best
			}
			normalize(f.msgToA)
			// message factor -> b
			for y := 0; y < len(f.msgToB); y++ {
				best := math.Inf(-1)
				for x := 0; x < len(f.msgToA); x++ {
					if v := f.logPsi[x][y] + varMsg(f.a, f, x); v > best {
						best = v
					}
				}
				f.msgToB[y] = pgmDamping*f.msgToB[y] + (1-pgmDamping)*best
			}
			normalize(f.msgToB)
		}
	}
	for i, v := range vars {
		v.belief = make([]float64, v.domain)
		for x := 0; x < v.domain; x++ {
			v.belief[x] = varMsg(i, nil, x)
		}
	}
}

func normalize(msg []float64) {
	max := math.Inf(-1)
	for _, v := range msg {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return
	}
	for i := range msg {
		msg[i] -= max
	}
}
