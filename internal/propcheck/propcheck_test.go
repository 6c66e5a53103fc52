package propcheck

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

var (
	seedsFlag = flag.Int("seeds", 25, "number of generated scenario seeds TestProperties checks")
	seedFlag  = flag.Int64("seed", -1, "replay one scenario seed and nothing else (overrides -seeds)")
	firstSeed = flag.Int64("first-seed", 1, "first seed of the generated range")
)

// TestProperties is the harness entry point. Each seed runs the full
// invariant catalog of DESIGN.md §12: the worker × fault × telemetry
// differential matrix, the per-run invariants, the rank-join and repair
// retrieval oracles, the resolver differential and a degraded run.
//
// Replay a failure with:
//
//	go test ./internal/propcheck -run TestProperties -seed <n> -v
func TestProperties(t *testing.T) {
	if *seedFlag >= 0 {
		runSeed(t, *seedFlag)
		return
	}
	for i := 0; i < *seedsFlag; i++ {
		seed := *firstSeed + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, seed)
		})
	}
}

func runSeed(t *testing.T, seed int64) {
	t.Helper()
	res, err := RunSeed(seed)
	if err != nil {
		t.Fatalf("seed %d (%s/%s, %d rows): %v\nreplay: go test ./internal/propcheck -run TestProperties -seed %d -v",
			seed, res.Kind, res.KBName, res.Rows, err, seed)
	}
	t.Logf("seed %d: %s/%s rows=%d configs=%d erroneous=%d kb-covered-rewrites=%d questions=%d/%d(no-dedup) exhaustive-skipped=%v no-pattern=%v",
		seed, res.Kind, res.KBName, res.Rows, res.Configs, res.Erroneous,
		res.KBCoveredRewrites, res.Questions, res.QuestionsNoDedup,
		res.ExhaustiveSkipped, res.NoPattern)
}

// TestGenerateDeterministic pins the generator itself: the same seed must
// build the same scenario, and neighbouring seeds must not.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if !reflect.DeepEqual(a.Dirty, b.Dirty) || !reflect.DeepEqual(a.Clean, b.Clean) {
		t.Fatal("Generate(7) built different tables on two calls")
	}
	if !reflect.DeepEqual(a.Injected, b.Injected) || a.Collisions != b.Collisions {
		t.Fatal("Generate(7) injected different corruption on two calls")
	}
	if c := Generate(8); reflect.DeepEqual(a.Dirty, c.Dirty) && a.Kind == c.Kind {
		t.Fatal("Generate(7) and Generate(8) built identical scenarios")
	}
}

// TestCanonicalStable pins the canonical encoding: two runs of the same
// configuration must encode byte-identically (the matrix comparisons in
// RunSeed rely on this being a total, stable projection).
func TestCanonicalStable(t *testing.T) {
	sc := Generate(3)
	rep1, _, err1 := sc.Run(RunConfig{Workers: 1})
	rep2, _, err2 := sc.Run(RunConfig{Workers: 1})
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("run errors diverged: %v vs %v", err1, err2)
	}
	if !bytes.Equal(Canonical(rep1), Canonical(rep2)) {
		t.Fatal("canonical encodings of identical runs differ")
	}
}

// TestMatrixShape pins the differential matrix: the parallelism axis
// carries 1, 2 and 4 (GOMAXPROCS deduplicated in) crossed with both boolean
// axes — the `parallel ≡ serial` invariant.
func TestMatrixShape(t *testing.T) {
	m := Matrix()
	workers := map[int]bool{}
	for _, cfg := range m {
		workers[cfg.Workers] = true
	}
	if !workers[1] || !workers[2] || !workers[4] || !workers[runtime.GOMAXPROCS(0)] {
		t.Fatalf("matrix misses required parallelism values: %+v", m)
	}
	if len(m) != len(workers)*4 {
		t.Fatalf("matrix has %d cells for %d parallelism values", len(m), len(workers))
	}
}
