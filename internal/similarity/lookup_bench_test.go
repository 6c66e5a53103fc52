package similarity_test

import (
	"testing"

	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/workload"
	"katara/internal/world"
)

var lookupSink []similarity.Candidate

// BenchmarkIndexLookup measures one fuzzy lookup on the shapes discovery
// resolves: the Yago-like KB's labels (about 5.1K, 19 bytes on average once
// normalised) indexed as rdf.Store indexes them, queried with the WebTables
// tables' 1.7K distinct normalised cell values at the paper's 0.7
// threshold, round-robin. ns/op and allocs/op are per lookup; most of the
// time is the verify kernel over the candidates that clear the trigram
// filter.
func BenchmarkIndexLookup(b *testing.B) {
	w := world.New(1, world.Config{})
	kb := workload.YagoLike(w, 1).Store
	ix := similarity.NewIndex()
	kb.ForEachTriple(func(t rdf.Triple) {
		if t.P == kb.LabelID && kb.IsLiteral(t.O) {
			ix.Add(kb.Term(t.O).Value)
		}
	})
	var queries []string
	seen := map[string]bool{}
	for _, spec := range workload.WebTables(w, 1).Specs {
		for _, row := range spec.Table.Rows {
			for _, v := range row {
				if n := similarity.Normalize(v); !seen[n] {
					seen[n] = true
					queries = append(queries, n)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupSink = ix.LookupNormalized(queries[i%len(queries)], similarity.DefaultThreshold)
	}
}
