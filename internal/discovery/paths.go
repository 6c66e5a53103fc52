package discovery

import (
	"katara/internal/pattern"
	"katara/internal/rdf"
)

// DiscoverPathEdges implements the §9 extension at discovery level: for
// every ordered pair of typed columns that produced *no* direct
// relationship candidates, it searches the KB for two-hop property chains
// through intermediate resources ("A1 wasBornIn city, city isLocatedIn A2")
// and returns the best-supported chain per pair as a PathEdge.
//
// Path discovery is deliberately separate from the rank join: the paper's
// scoring model (§4.2) is defined over single relationships, so path edges
// are attached to an already-validated pattern rather than competing inside
// it.
func DiscoverPathEdges(c *Candidates) []pattern.PathEdge {
	kb := c.Stats.KB()
	var out []pattern.PathEdge
	for i := range c.Columns {
		for j := range c.Columns {
			if i == j {
				continue
			}
			from, to := c.Columns[i].Col, c.Columns[j].Col
			if c.PairFor(from, to) != nil {
				continue // a direct relationship exists; §4 handles it
			}
			valuesA := make([]string, len(c.Rows))
			valuesB := make([]string, len(c.Rows))
			for ri, row := range c.Rows {
				valuesA[ri] = c.Table.Cell(row, from)
				valuesB[ri] = c.Table.Cell(row, to)
			}
			found := pattern.DiscoverPaths(kb, valuesA, valuesB, c.Options.Threshold, minSupport)
			if len(found) == 0 {
				continue
			}
			out = append(out, pattern.PathEdge{From: from, To: to, Props: found[0].Props})
		}
	}
	return out
}

// AttachPathEdges adds discovered path edges to p, skipping pairs already
// related (directly or by an existing path, in either direction). It
// returns the number of edges attached.
func AttachPathEdges(p *pattern.Pattern, paths []pattern.PathEdge) int {
	n := 0
	for _, pe := range paths {
		if p.EdgeBetween(pe.From, pe.To) != nil || p.EdgeBetween(pe.To, pe.From) != nil {
			continue
		}
		if p.PathEdgeBetween(pe.From, pe.To) != nil || p.PathEdgeBetween(pe.To, pe.From) != nil {
			continue
		}
		if p.TypeOf(pe.From) == rdf.NoID || p.TypeOf(pe.To) == rdf.NoID {
			continue // §9 paths are defined between typed columns
		}
		p.Paths = append(p.Paths, pe)
		n++
	}
	return n
}
