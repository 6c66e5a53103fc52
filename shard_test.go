package katara

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"katara/internal/table"
	"katara/internal/workload"
	"katara/internal/world"
)

// shardFixture builds a fresh dirty table plus a factory producing an
// identically-configured Cleaner over a pristine KB clone — sharded-vs-
// unsharded comparisons must not share mutable state (enrichment writes to
// the KB, the crowd RNG advances) across runs.
func shardFixture(t *testing.T, rows int) (*Table, func(opts Options) *Cleaner) {
	t.Helper()
	const seed = 77
	w := world.New(seed, world.Config{
		Persons: 300, Players: 120, Clubs: 24, Universities: 80, Films: 40, Books: 40,
	})
	kb := workload.DBpediaLike(w, seed)
	spec := workload.PersonTable(w, seed, rows)
	dirty := spec.Table.Clone()
	rng := rand.New(rand.NewSource(seed))
	if injected := table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, rng); len(injected) == 0 {
		t.Fatal("no errors injected")
	}
	newCleaner := func(opts Options) *Cleaner {
		fresh := kb.Clone()
		opts.ValidationOracle = workload.SpecOracle{Spec: spec, KB: fresh}
		opts.FactOracle = workload.WorldOracle{W: w, KB: fresh}
		if opts.RepairK == 0 {
			opts.RepairK = 3
		}
		return NewCleaner(fresh.Store, NewCrowd(10, 0.97, seed), opts)
	}
	return dirty, newCleaner
}

// stripTimings drops the wall-clock-bearing snapshot so reports can be
// compared structurally; everything else in a Report is deterministic.
func stripTimings(r *Report) *Report {
	cp := *r
	cp.Timings = nil
	return &cp
}

// TestShardedMatchesUnsharded is the root-level `parallel(T, N) ≡
// serial(T)` invariant: for every parallelism the full report — pattern,
// annotations, enrichment facts, repairs, crowd accounting, degradation
// flags — is identical. (The propcheck harness re-proves this byte-for-byte
// on canonical serializations; this test keeps the property one `go test ./`
// away.)
func TestShardedMatchesUnsharded(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 400)
	base, err := newCleaner(Options{}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	want := stripTimings(base)
	if len(want.Repairs) == 0 {
		t.Fatal("fixture produced no repairs; the invariant would be vacuous")
	}
	for _, shards := range []int{1, 2, 3, 4, runtime.GOMAXPROCS(0), 97} {
		got, err := newCleaner(Options{Workers: shards, Telemetry: true}).Clean(dirty)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.Timings == nil {
			t.Fatalf("shards=%d: Telemetry option lost in sharded path", shards)
		}
		var kbLookups int64
		for _, c := range got.Timings.Counters {
			if c.Name == "kb-lookups" {
				kbLookups = c.Value
			}
		}
		if kbLookups == 0 {
			t.Fatalf("shards=%d: shard telemetry not merged, kb-lookups = 0", shards)
		}
		if !reflect.DeepEqual(stripTimings(got), want) {
			t.Errorf("shards=%d: report differs from unsharded run", shards)
		}
	}
}

// TestShardsOptionWired: Options.Shards is an alias of Workers — it drives
// the run the same way, and negative means GOMAXPROCS.
func TestShardsOptionWired(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 200)
	want, err := newCleaner(Options{}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, -1} {
		got, err := newCleaner(Options{Shards: shards}).Clean(dirty)
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
			t.Errorf("Shards=%d: report differs from unsharded run", shards)
		}
	}
}

// TestShardedDeadlineDegrades: the sharded path honours the same graceful-
// degradation contract as the serial one — an immediately-expired deadline
// still yields a report, with repairs skipped and the degradation flagged.
func TestShardedDeadlineDegrades(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 200)
	rep, err := newCleaner(Options{Deadline: time.Nanosecond, Shards: 4}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded.RepairsSkipped {
		t.Error("expired deadline did not flag RepairsSkipped in sharded run")
	}
	if len(rep.Repairs) != 0 {
		t.Errorf("expired deadline still produced %d repairs", len(rep.Repairs))
	}
	if len(rep.Annotations) != dirty.NumRows() {
		t.Errorf("degraded run annotated %d/%d tuples", len(rep.Annotations), dirty.NumRows())
	}
}

// TestShardedPersonScale pushes a sharded clean over a table an order of
// magnitude beyond the default workload — the single-machine stand-in for
// the paper's 316K-row Person run that originally needed a 30-machine
// cluster. Skipped under -short.
func TestShardedPersonScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large sharded run skipped with -short")
	}
	dirty, newCleaner := shardFixture(t, 20000)
	rep, err := newCleaner(Options{Workers: runtime.GOMAXPROCS(0)}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Annotations) != dirty.NumRows() {
		t.Fatalf("annotated %d/%d tuples", len(rep.Annotations), dirty.NumRows())
	}
	if len(rep.Repairs) == 0 {
		t.Fatal("no repairs at scale")
	}
}
