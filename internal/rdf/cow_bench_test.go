package rdf_test

import (
	"testing"

	"katara/internal/workload"
	"katara/internal/world"
)

// BenchmarkCloneExactFirstWrite measures what a job on the job server pays
// to isolate its KB: a CloneExact share of the Yago-shaped KB (about 23K
// triples, 5.1K labels) and its first write, a new label on an existing
// entity — a triple that touches the pso, pos, subject, label and fuzzy
// indexes. The write copies only the keys it touches, so ns/op and
// allocs/op do not grow with the KB.
func BenchmarkCloneExactFirstWrite(b *testing.B) {
	w := world.New(1, world.Config{})
	kb := workload.YagoLike(w, 1).Store
	kb.WarmClosures()
	entity := kb.SubjectsWithPredicate(kb.TypeID)[0]
	label := kb.Literal("an enrichment label")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !kb.CloneExact().Add(entity, kb.LabelID, label) {
			b.Fatal("the write was a duplicate")
		}
	}
}
