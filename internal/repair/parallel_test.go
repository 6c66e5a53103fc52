package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/telemetry"
)

// randKB builds a person–country–capital KB big enough that enumeration has
// many roots to shard: nPeople persons, each a national of one of nCountries
// countries, each country with one capital.
func randKB(seed int64, nPeople, nCountries int) (*rdf.Store, *pattern.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }
	for j := 0; j < nCountries; j++ {
		c, t := fmt.Sprintf("y:C%d", j), fmt.Sprintf("y:T%d", j)
		add(c, rdf.IRIType, "country")
		lit(c, rdf.IRILabel, fmt.Sprintf("C%d", j))
		add(t, rdf.IRIType, "capital")
		lit(t, rdf.IRILabel, fmt.Sprintf("T%d", j))
		add(c, "hasCapital", t)
	}
	for i := 0; i < nPeople; i++ {
		p := fmt.Sprintf("y:P%d", i)
		add(p, rdf.IRIType, "person")
		lit(p, rdf.IRILabel, fmt.Sprintf("P%d", i))
		add(p, "nationality", fmt.Sprintf("y:C%d", rng.Intn(nCountries)))
	}
	pat := &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: kb.Res("person")},
			{Column: 1, Type: kb.Res("country")},
			{Column: 2, Type: kb.Res("capital")},
		},
		Edges: []pattern.Edge{
			{From: 0, To: 1, Prop: kb.Res("nationality")},
			{From: 1, To: 2, Prop: kb.Res("hasCapital")},
		},
	}
	return kb, pat
}

func TestParallelBuildIndexMatchesSerial(t *testing.T) {
	kb, pat := randKB(1, 60, 20)
	serial := BuildIndex(kb, pat, Options{})
	for _, workers := range []int{2, 4, 8} {
		par := BuildIndex(kb, pat, Options{Workers: workers})
		if !reflect.DeepEqual(serial.Graphs, par.Graphs) {
			t.Fatalf("workers=%d: %d graphs vs serial %d, or different order",
				workers, par.NumGraphs(), serial.NumGraphs())
		}
		if !reflect.DeepEqual(serial.numbers, par.numbers) {
			t.Fatalf("workers=%d: value numbering differs", workers)
		}
		if !reflect.DeepEqual(serial.posts, par.posts) {
			t.Fatalf("workers=%d: inverted lists differ", workers)
		}
		if !reflect.DeepEqual(serial.vals, par.vals) {
			t.Fatalf("workers=%d: per-graph value numbers differ", workers)
		}
	}
}

func TestBuildIndexTelemetryCountsGraphs(t *testing.T) {
	kb, pat := figure5KB()
	tel := telemetry.New()
	ix := BuildIndex(kb, pat, Options{Telemetry: tel})
	if got := tel.Get(telemetry.GraphsEnumerated); got != int64(ix.NumGraphs()) {
		t.Fatalf("GraphsEnumerated = %d, want %d", got, ix.NumGraphs())
	}
	ix.TopK([]string{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"}, 2)
	if got := tel.Get(telemetry.RepairsGenerated); got != 2 {
		t.Fatalf("RepairsGenerated = %d, want 2", got)
	}
}

// TestTopKDifferentialRandomized property-checks that the inverted-list
// retrieval and the naive full scan return the same repairs — graph, cost
// and Changes — on randomized tables and KBs. Some seeds give a column zero
// weight, so a graph reached only through it is still a candidate, and some
// tuples are narrower than the pattern's widest column. Weights are
// integral so cost comparisons are exact.
func TestTopKDifferentialRandomized(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		kb, pat := randKB(seed, 30+rng.Intn(40), 5+rng.Intn(15))
		opts := Options{}
		switch seed % 3 {
		case 1:
			opts.Weights = map[int]float64{0: float64(1 + rng.Intn(3)), 2: float64(1 + rng.Intn(4))}
		case 2:
			zero := rng.Intn(3)
			opts.Weights = map[int]float64{zero: 0, (zero + 1 + rng.Intn(2)) % 3: float64(1 + rng.Intn(3))}
		}
		ix := BuildIndex(kb, pat, opts)
		cell := func() string {
			// Mix of real labels and junk that matches nothing.
			switch rng.Intn(4) {
			case 0:
				return fmt.Sprintf("P%d", rng.Intn(70))
			case 1:
				return fmt.Sprintf("C%d", rng.Intn(20))
			case 2:
				return fmt.Sprintf("T%d", rng.Intn(20))
			default:
				return fmt.Sprintf("X%d", rng.Intn(100))
			}
		}
		for trial := 0; trial < 40; trial++ {
			tup := []string{cell(), cell(), cell()}
			if trial%4 == 3 {
				tup = tup[:rng.Intn(3)] // narrower than the pattern
			}
			k := 1 + rng.Intn(ix.NumGraphs()+2)
			if trial%2 == 0 {
				k = 1 + rng.Intn(4) // the small k a Clean asks for
			}
			fast := ix.TopK(tup, k)
			slow := ix.TopKNaive(tup, k)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("seed=%d weights=%v tuple=%q k=%d:\nTopK  %v\nnaive %v",
					seed, opts.Weights, tup, k, fast, slow)
			}
		}
	}
}

// TestTopKStatsConcurrentReaders ranks shuffled tuples on one index from 8
// goroutines, directly and through WithTelemetry views that share its
// scratch pool; every answer must equal the serial one.
func TestTopKStatsConcurrentReaders(t *testing.T) {
	kb, pat := randKB(3, 60, 12)
	ix := BuildIndex(kb, pat, Options{Weights: map[int]float64{1: 0, 2: 2}})
	rng := rand.New(rand.NewSource(9))
	tuples := make([][]string, 64)
	for i := range tuples {
		tuples[i] = []string{
			fmt.Sprintf("P%d", rng.Intn(70)),
			fmt.Sprintf("C%d", rng.Intn(14)),
			fmt.Sprintf("T%d", rng.Intn(14)),
		}[:1+rng.Intn(3)]
	}
	type answer struct {
		reps       []Repair
		considered int
	}
	want := make([]answer, len(tuples))
	for i, tup := range tuples {
		want[i].reps, want[i].considered = ix.TopKStats(tup, 3)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := ix
			if w%2 == 1 {
				view = ix.WithTelemetry(telemetry.New())
			}
			order := rand.New(rand.NewSource(int64(w))).Perm(len(tuples))
			for pass := 0; pass < 20; pass++ {
				for _, i := range order {
					reps, considered := view.TopKStats(tuples[i], 3)
					if considered != want[i].considered || !reflect.DeepEqual(reps, want[i].reps) {
						errs <- fmt.Errorf("worker %d tuple %q: got %v (%d considered), want %v (%d)",
							w, tuples[i], reps, considered, want[i].reps, want[i].considered)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTopKStatsAllocations pins the kernel's allocations on the Figure 5
// index: the tuple's normalised cells, the result slice and one Changes
// slice per kept repair — no per-call map, sort or scratch.
func TestTopKStatsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	kb, p := figure5KB()
	ix := BuildIndex(kb, p, Options{})
	t3 := []string{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"}
	const k = 2
	ix.TopKStats(t3, k) // size the pooled scratch
	allocs := testing.AllocsPerRun(200, func() { ix.TopKStats(t3, k) })
	if limit := float64(len(t3) + 1 + k); allocs > limit {
		t.Fatalf("TopKStats allocates %.0f times per call, want at most %.0f", allocs, limit)
	}
}
