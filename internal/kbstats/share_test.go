package kbstats_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/workload"
	"katara/internal/world"
)

// yago builds the Yago-shaped KB and its world, warmed as the job server
// warms its pristine copy.
func yago() (*world.World, *rdf.Store) {
	w := world.New(1, world.Config{})
	kb := workload.YagoLike(w, 1).Store
	kb.WarmClosures()
	return w, kb
}

// flatCopy returns a store holding kb's terms at kb's IDs and kb's triples
// that shares nothing with kb: it belongs to no snapshot, so its Stats are
// a scan of its own.
func flatCopy(kb *rdf.Store) *rdf.Store {
	out := rdf.New()
	for id := 0; id < kb.NumTerms(); id++ {
		out.Intern(kb.Term(rdf.ID(id)))
	}
	kb.ForEachTriple(func(t rdf.Triple) { out.Add(t.S, t.P, t.O) })
	return out
}

// statsView renders every accessor of s over every class and property of
// kb — counts, tf-idf terms, subSC and objSC of every (class, property)
// pair and the per-property maxima — so two Stats compare as values.
func statsView(s *kbstats.Stats, kb *rdf.Store) []string {
	out := []string{fmt.Sprintf("entities=%d types=%d properties=%v", s.NumEntities(), s.NumTypes(), s.Properties())}
	for n := 0; n <= s.NumTypes()+1; n++ {
		out = append(out, fmt.Sprintf("idf(%d)=%v", n, s.IDF(n)))
	}
	for n := 0; n <= len(s.Properties())+1; n++ {
		out = append(out, fmt.Sprintf("relidf(%d)=%v", n, s.RelIDF(n)))
	}
	classes := kb.Classes()
	for _, c := range classes {
		out = append(out, fmt.Sprintf("class %d: ent=%d tf=%v", c, s.EntitiesOfType(c), s.TF(c)))
	}
	for _, p := range kb.Predicates() {
		out = append(out, fmt.Sprintf("prop %d: facts=%d reltf=%v maxsub=%v maxobj=%v",
			p, s.NumFacts(p), s.RelTF(p), s.MaxSubSC(p), s.MaxObjSC(p)))
		for _, c := range classes {
			out = append(out, fmt.Sprintf("sc %d,%d: sub=%v obj=%v", c, p, s.SubSC(c, p), s.ObjSC(c, p)))
		}
	}
	return out
}

// TestSharedStatsMatchUnshared: Stats of a CloneExact share, whose KB tables
// come from the snapshot, read exactly as Stats scanned from a copy that
// shares nothing, through every accessor over every class and property —
// for the first share (which builds the tables), a later one (which reuses
// them) and the snapshot's source.
func TestSharedStatsMatchUnshared(t *testing.T) {
	_, kb := yago()
	want := statsView(kbstats.New(flatCopy(kb)), kb)
	first := kb.CloneExact()
	later := kb.CloneExact()
	for name, s := range map[string]*rdf.Store{"first share": first, "later share": later, "source": kb} {
		if got := statsView(kbstats.New(s), s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared Stats differ from unshared ones", name)
		}
	}
	// The tables are built once per snapshot: another share's Stats cost a
	// handful of allocations, not a scan of the KB.
	if allocs := testing.AllocsPerRun(20, func() { kbstats.New(kb.CloneExact()) }); allocs > 16 {
		t.Errorf("kbstats.New on a share of a warm snapshot: %.0f allocs, want <= 16 (no rescan)", allocs)
	}
}

// TestShareWriteRebuildsStats: a share that adds a type or subClassOf
// triple leaves its snapshot, so kbstats.New then returns its own KB's
// statistics, while the snapshot's other stores keep theirs.
func TestShareWriteRebuildsStats(t *testing.T) {
	_, kb := yago()
	classes := kb.Classes()
	leaf, root := classes[len(classes)-1], classes[0]
	writes := map[string]func(*rdf.Store){
		"type": func(s *rdf.Store) { s.Add(s.Res("urn:test:newEntity"), s.TypeID, leaf) },
		"subClassOf": func(s *rdf.Store) {
			s.Add(s.Res("urn:test:newClass"), s.SubClassOfID, root)
			s.Add(s.Res("urn:test:member"), s.TypeID, s.Res("urn:test:newClass"))
		},
	}
	before := statsView(kbstats.New(flatCopy(kb)), kb)
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			share := kb.CloneExact()
			kbstats.New(share)
			write(share)
			got := statsView(kbstats.New(share), share)
			if want := statsView(kbstats.New(flatCopy(share)), share); !reflect.DeepEqual(got, want) {
				t.Fatal("Stats of a written share differ from a scan of its KB")
			}
			if reflect.DeepEqual(got, statsView(kbstats.New(kb.CloneExact()), share)) {
				t.Fatal("the write changed no statistic; the check needs one that does")
			}
			if other := statsView(kbstats.New(kb.CloneExact()), kb); !reflect.DeepEqual(other, before) {
				t.Fatal("a write on one share changed the Stats of another")
			}
		})
	}
}

// TestSharedStatsConcurrentGenerate: six goroutines take shares of one
// pristine KB, build Stats and run discovery.GenerateParallel at once; every
// candidate set equals serial discovery over a copy that shares nothing.
// Run under -race (the CI race job repeats it ten times).
func TestSharedStatsConcurrentGenerate(t *testing.T) {
	w, kb := yago()
	specs := workload.WebTables(w, 308).Specs[:6]
	want := make([]*discovery.Candidates, len(specs))
	flat := flatCopy(kb)
	for i, spec := range specs {
		want[i] = discovery.Generate(spec.Table, kbstats.New(flat), discovery.Options{})
	}
	got := make([]*discovery.Candidates, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share := kb.CloneExact()
			got[i] = discovery.GenerateParallel(spec.Table, kbstats.New(share), discovery.Options{}, 3)
		}()
	}
	wg.Wait()
	for i := range specs {
		if !reflect.DeepEqual(got[i].Columns, want[i].Columns) || !reflect.DeepEqual(got[i].Pairs, want[i].Pairs) {
			t.Errorf("table %d: candidates on a shared Stats differ from serial discovery on an unshared KB", i)
		}
	}
}

var statsSink *kbstats.Stats

// BenchmarkStatsNew measures kbstats.New on the Yago-shaped KB: a scan of a
// store that belongs to no snapshot, against a new share of a warm snapshot
// whose tables an earlier share built (the per-job cost on the job server).
func BenchmarkStatsNew(b *testing.B) {
	_, kb := yago()
	b.Run("unshared", func(b *testing.B) {
		flat := flatCopy(kb)
		flat.WarmClosures()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statsSink = kbstats.New(flat)
		}
	})
	b.Run("share", func(b *testing.B) {
		kbstats.New(kb.CloneExact())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statsSink = kbstats.New(kb.CloneExact())
		}
	})
}
