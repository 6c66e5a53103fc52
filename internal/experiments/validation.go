package experiments

import (
	"fmt"

	"katara/internal/discovery"
	"katara/internal/metrics"
	"katara/internal/pattern"
)

// --- Figures 7 and 12: validated-pattern quality vs questions per variable ---

// ValidationSeries is one (dataset, KB) curve of validated-pattern P/R over
// the number of questions q asked per variable.
type ValidationSeries struct {
	Dataset, KB string
	Q           []int
	P, R        []float64
}

// Figure7 reproduces "Figure 7: Pattern validation P/R (WebTables)".
func Figure7(e *Env, maxQ int) []ValidationSeries {
	return validationCurves(e, []string{"WebTables"}, maxQ)
}

// Figure12 reproduces the appendix-C curves for WikiTables and
// RelationalTables.
func Figure12(e *Env, maxQ int) []ValidationSeries {
	return validationCurves(e, []string{"WikiTables", "RelationalTables"}, maxQ)
}

func validationCurves(e *Env, datasets []string, maxQ int) []ValidationSeries {
	if maxQ <= 0 {
		maxQ = 7
	}
	var out []ValidationSeries
	for _, kb := range e.KBs {
		for _, name := range datasets {
			ds := e.Dataset(name)
			s := ValidationSeries{Dataset: name, KB: kb.Name}
			cands := make([]*discoveryCands, len(ds.Specs))
			for i, spec := range ds.Specs {
				cands[i] = &discoveryCands{spec: spec, c: e.candidates(spec, kb)}
			}
			for q := 1; q <= maxQ; q++ {
				sumP, sumR := 0.0, 0.0
				n := 0
				for i, dc := range cands {
					ps := discovery.TopK(dc.c, e.Cfg.K)
					if len(ps) == 0 {
						continue
					}
					c := e.newCrowd(int64(1000*q + i))
					v := e.newValidator(dc.spec, kb, c, int64(3000*q+i))
					v.QuestionsPerVariable = q
					res := v.MUVF(ps)
					truth := dc.spec.TruthPattern(kb)
					pr := metrics.PatternPR(kb.Store, res.Pattern, truth)
					sumP += pr.Precision
					sumR += pr.Recall
					n++
				}
				s.Q = append(s.Q, q)
				if n > 0 {
					s.P = append(s.P, sumP/float64(n))
					s.R = append(s.R, sumR/float64(n))
				} else {
					s.P = append(s.P, 0)
					s.R = append(s.R, 0)
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// RenderValidation prints P and R rows per curve.
func RenderValidation(title string, series []ValidationSeries) string {
	if len(series) == 0 {
		return title + ": no data\n"
	}
	header := []string{"dataset", "KB", "metric"}
	for _, q := range series[0].Q {
		header = append(header, fmt.Sprintf("q=%d", q))
	}
	g := &grid{header: header}
	for _, s := range series {
		rowP := []string{s.Dataset, s.KB, "P"}
		rowR := []string{s.Dataset, s.KB, "R"}
		for i := range s.Q {
			rowP = append(rowP, f2(s.P[i]))
			rowR = append(rowR, f2(s.R[i]))
		}
		g.add(rowP...)
		g.add(rowR...)
	}
	return title + "\n" + g.String()
}

// --- Table 4: #-variables to validate, MUVF vs AVI ---

// Table4Row compares scheduling strategies for one dataset under one KB.
type Table4Row struct {
	Dataset, KB string
	MUVF, AVI   int
}

// Table4 reproduces "Table 4: #-variables to validate".
func Table4(e *Env) []Table4Row {
	var out []Table4Row
	for _, kb := range e.KBs {
		for _, ds := range e.Datasets {
			row := Table4Row{Dataset: ds.Name, KB: kb.Name}
			for i, spec := range ds.Specs {
				c := e.candidates(spec, kb)
				ps := discovery.TopK(c, e.Cfg.K)
				if len(ps) == 0 {
					continue
				}
				clone := func() []*pattern.Pattern {
					out := make([]*pattern.Pattern, len(ps))
					for j, p := range ps {
						out[j] = p.Clone()
					}
					return out
				}
				vm := e.newValidator(spec, kb, e.newCrowd(int64(41*i+1)), int64(81*i+1))
				row.MUVF += vm.MUVF(clone()).VariablesValidated
				va := e.newValidator(spec, kb, e.newCrowd(int64(41*i+2)), int64(81*i+2))
				row.AVI += va.AVI(clone()).VariablesValidated
			}
			out = append(out, row)
		}
	}
	return out
}

// RenderTable4 prints the comparison paper-style.
func RenderTable4(rows []Table4Row) string {
	g := &grid{header: []string{"dataset", "KB", "MUVF", "AVI"}}
	for _, r := range rows {
		g.add(r.Dataset, r.KB, fmt.Sprint(r.MUVF), fmt.Sprint(r.AVI))
	}
	return "Table 4: #-variables to validate\n" + g.String()
}
