package kbstats_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/pattern"
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

// statsReader is what statsView reads: the accessors of kbstats.Stats,
// which the eager reference implements too.
type statsReader interface {
	NumEntities() int
	NumTypes() int
	Properties() []rdf.ID
	IDF(numCellTypes int) float64
	RelIDF(numPairRels int) float64
	EntitiesOfType(t rdf.ID) int
	TF(t rdf.ID) float64
	NumFacts(p rdf.ID) int
	RelTF(p rdf.ID) float64
	MaxSubSC(p rdf.ID) float64
	MaxObjSC(p rdf.ID) float64
	SubSC(t, p rdf.ID) float64
	ObjSC(t, p rdf.ID) float64
}

// statsView renders every accessor of s over every class and property of
// kb — counts, tf-idf terms, subSC and objSC of every (class, property)
// pair and the per-property maxima — so two Stats compare as values.
func statsView(s statsReader, kb *rdf.Store) []string {
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
// come from the snapshot, read exactly as Stats of a copy that shares
// nothing, through every accessor over every class and property — for the
// store whose reads fill the snapshot's tables, the others that then read
// them, and the snapshot's source.
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
	// New computes nothing, and a statistic is computed once per snapshot:
	// a later share reads every property's fact count and rank-join
	// maxima in a few dozen allocations (its own caches), where computing
	// them takes tens of thousands.
	if allocs := testing.AllocsPerRun(20, func() { kbstats.New(kb.CloneExact()) }); allocs > 16 {
		t.Errorf("kbstats.New on a share: %.0f allocs, want <= 16", allocs)
	}
	props := kbstats.New(kb).Properties()
	allocs := testing.AllocsPerRun(20, func() {
		s := kbstats.New(kb.CloneExact())
		for _, p := range props {
			s.NumFacts(p)
			s.MaxSubSC(p)
			s.MaxObjSC(p)
		}
	})
	if allocs > 200 {
		t.Errorf("a share's reads of filled maxima: %.0f allocs, want <= 200 (no recomputation)", allocs)
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
// pristine KB whose snapshot has filled no statistic yet, and two of the
// shares write first, which takes them out of the snapshot. Each builds
// Stats and runs discovery.GenerateParallel and the rank join at once, so
// the four unwritten shares fill the snapshot's tables concurrently while
// the two written ones fill their own; every result equals serial
// discovery over a copy of its KB that shares nothing. Run under -race (the
// CI race job repeats it ten times).
func TestSharedStatsConcurrentGenerate(t *testing.T) {
	w, kb := yago()
	specs := workload.WebTables(w, 308).Specs[:6]
	writes := map[int]bool{1: true, 4: true}
	type result struct {
		cands *discovery.Candidates
		top   []*pattern.Pattern
	}
	discover := func(i int, stats *kbstats.Stats, workers int) result {
		c := discovery.GenerateParallel(specs[i].Table, stats, discovery.Options{}, workers)
		return result{c, discovery.TopK(c, 10)}
	}
	written := kb.CloneExact()
	writeStats(written)
	flat, flatWritten := flatCopy(kb), flatCopy(written)
	want := make([]result, len(specs))
	moved := false
	for i := range specs {
		want[i] = discover(i, kbstats.New(flat), 1)
		if writes[i] {
			pristine := want[i]
			want[i] = discover(i, kbstats.New(flatWritten), 1)
			moved = moved || !reflect.DeepEqual(want[i].top, pristine.top)
		}
	}
	if !moved {
		t.Fatal("the writes changed no result; the check needs writes that do")
	}
	got := make([]result, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share := kb.CloneExact()
			if writes[i] {
				writeStats(share)
			}
			got[i] = discover(i, kbstats.New(share), 3)
		}()
	}
	wg.Wait()
	for i := range specs {
		if !reflect.DeepEqual(got[i].cands.Columns, want[i].cands.Columns) || !reflect.DeepEqual(got[i].cands.Pairs, want[i].cands.Pairs) {
			t.Errorf("table %d (written %v): candidates on a shared Stats differ from serial discovery on an unshared KB", i, writes[i])
		}
		if !reflect.DeepEqual(got[i].top, want[i].top) {
			t.Errorf("table %d (written %v): top patterns on a shared Stats differ from serial discovery on an unshared KB", i, writes[i])
		}
	}
}

// TestStatsAnswerForTheKBAtNew: Stats taken on a share keep reading the
// snapshot after the share's first write, and Stats of a store outside any
// snapshot refuse to fill a statistic once the store has been written.
func TestStatsAnswerForTheKBAtNew(t *testing.T) {
	_, kb := yago()
	want := statsView(kbstats.New(flatCopy(kb)), kb)
	share := kb.CloneExact()
	s := kbstats.New(share)
	writeStats(share)
	if got := statsView(s, kb); !reflect.DeepEqual(got, want) {
		t.Error("Stats taken before a share's first write do not answer for the snapshot")
	}
	if reflect.DeepEqual(statsView(kbstats.New(share), share), want) {
		t.Fatal("the write changed no statistic; the check needs one that does")
	}

	flat := flatCopy(kb)
	s = kbstats.New(flat)
	writeStats(flat)
	defer func() {
		if recover() == nil {
			t.Error("a fill after the store was written did not panic")
		}
	}()
	s.NumEntities()
}

var statsSink *kbstats.Stats

// BenchmarkStatsNew measures kbstats.New plus the reads of one WebTables
// discovery on the Yago-shaped KB: the sizes and TF of the types its cells
// resolve to, and the fact counts and rank-join maxima of its candidate
// properties. On a store that belongs to no snapshot every read fills its
// statistic; on a new share of a warm snapshot an earlier share has filled
// them all (the per-job cost on the job server).
func BenchmarkStatsNew(b *testing.B) {
	w, kb := yago()
	read := discoveryReads(w, kb)
	b.Run("unshared", func(b *testing.B) {
		flat := flatCopy(kb)
		flat.WarmClosures()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statsSink = read(kbstats.New(flat))
		}
	})
	b.Run("share", func(b *testing.B) {
		read(kbstats.New(kb.CloneExact()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statsSink = read(kbstats.New(kb.CloneExact()))
		}
	})
}

// discoveryReads returns a function making the statistics reads of the
// first WebTables discovery on kb that finds a column pair.
func discoveryReads(w *world.World, kb *rdf.Store) func(*kbstats.Stats) *kbstats.Stats {
	var types, props []rdf.ID
	for _, spec := range workload.WebTables(w, 308).Specs {
		c := discovery.Generate(spec.Table, kbstats.New(flatCopy(kb)), discovery.Options{})
		if len(c.Pairs) == 0 {
			continue
		}
		seen := map[rdf.ID]bool{}
		for _, col := range c.Columns {
			for _, cell := range col.CellTypes {
				for t := range cell {
					if !seen[t] {
						seen[t] = true
						types = append(types, t)
					}
				}
			}
		}
		for _, pair := range c.Pairs {
			for _, r := range pair.Rels {
				if !seen[r.Prop] {
					seen[r.Prop] = true
					props = append(props, r.Prop)
				}
			}
		}
		break
	}
	return func(s *kbstats.Stats) *kbstats.Stats {
		s.IDF(1)
		s.RelIDF(1)
		for _, t := range types {
			s.TF(t)
		}
		for _, p := range props {
			s.RelTF(p)
			s.MaxSubSC(p)
			s.MaxObjSC(p)
		}
		return s
	}
}
