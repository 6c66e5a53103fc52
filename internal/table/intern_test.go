package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomCell draws a cell value biased toward the pathologies the interner
// must survive: empty strings, repeated values, near-duplicates differing by
// one character edit (the shape workload.InjectLabelCollisions uses for its
// decoy labels), and unicode.
func randomCell(rng *rand.Rand, pool []string) string {
	switch rng.Intn(10) {
	case 0:
		return ""
	case 1, 2, 3, 4:
		return pool[rng.Intn(len(pool))]
	case 5:
		// Near-duplicate: mutate one character of a pool value.
		s := []rune(pool[rng.Intn(len(pool))])
		if len(s) == 0 {
			return "x"
		}
		s[rng.Intn(len(s))] = rune('a' + rng.Intn(26))
		return string(s)
	case 6:
		return "Ångström-" + pool[rng.Intn(len(pool))]
	default:
		return fmt.Sprintf("v%d", rng.Intn(1<<20))
	}
}

// TestInternedRoundTrip is the interner's property test: for arbitrary cell
// values — empty strings, duplicates, near-duplicate labels, unicode — the
// columnar backing must reproduce every cell exactly, group rows if and only
// if their tuples are equal, and keep per-column dictionaries bijective.
func TestInternedRoundTrip(t *testing.T) {
	pool := []string{"Rome", "Rome ", "rome", "Madrid", "Madr1d", "", "São Paulo", "a"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(5)
		rows := rng.Intn(400)
		tb := New("t", opaqueCols(cols)...)
		tb.Grow(rows)
		for i := 0; i < rows; i++ {
			row := make([]string, cols)
			for j := range row {
				row[j] = randomCell(rng, pool)
			}
			tb.Append(row...)
		}

		in := tb.Interned()
		if in.NumRows() != rows || in.NumCols() != cols {
			t.Fatalf("seed %d: shape %dx%d, want %dx%d", seed, in.NumRows(), in.NumCols(), rows, cols)
		}
		// Round trip: every cell encodes to a code that decodes to exactly
		// the original string, and each dictionary is a bijection onto the
		// column's distinct values.
		for j := 0; j < cols; j++ {
			distinct := map[string]bool{}
			for i := 0; i < rows; i++ {
				cell := tb.Rows[i][j]
				distinct[cell] = true
				code := in.Dict(j).Code(cell)
				if code < 0 {
					t.Fatalf("seed %d: cell (%d,%d) %q has no code", seed, i, j, cell)
				}
				if got := in.Dict(j).Value(code); got != cell {
					t.Fatalf("seed %d: cell (%d,%d) decoded %q, want %q", seed, i, j, got, cell)
				}
			}
			if in.Dict(j).Len() != len(distinct) {
				t.Fatalf("seed %d: dict %d holds %d values, column has %d", seed, j, in.Dict(j).Len(), len(distinct))
			}
		}
		// Grouping: rows share a group exactly when their tuples are equal.
		for i := 0; i < rows; i++ {
			for k := i + 1; k < rows; k++ {
				equal := true
				for j := 0; j < cols; j++ {
					if tb.Rows[i][j] != tb.Rows[k][j] {
						equal = false
						break
					}
				}
				if got := in.GroupOf(i) == in.GroupOf(k); got != equal {
					t.Fatalf("seed %d: rows %d and %d share a group = %v, want %v", seed, i, k, got, equal)
				}
			}
		}
		// Groups partition the rows in first-occurrence order, each group's
		// Rep being its first member.
		seen := 0
		for g, gr := range in.Groups() {
			if len(gr.Rows) == 0 {
				t.Fatalf("seed %d: group %d empty", seed, g)
			}
			if gr.Rep != gr.Rows[0] {
				t.Fatalf("seed %d: group %d rep %d != first member %d", seed, g, gr.Rep, gr.Rows[0])
			}
			for _, row := range gr.Rows {
				if in.GroupOf(row) != g {
					t.Fatalf("seed %d: row %d in group %d but GroupOf says %d", seed, row, g, in.GroupOf(row))
				}
				seen++
			}
		}
		if seen != rows {
			t.Fatalf("seed %d: groups cover %d rows, want %d", seed, seen, rows)
		}
	}
}

func opaqueCols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

// TestInternedAllocationLean is the interner's allocation-budget test (the
// analogue of similarity's TestLookupAllocationLean): interning a table of R
// rows must stay within a small per-table budget — the fixed backing arrays
// plus one map entry per DISTINCT value/signature — never O(cells)
// allocations. A heavily duplicated 512x4 table has 32 distinct rows, so
// ~15 allocations (4 dicts + their map growth, groupOf, signature key copies
// amortised) is generous; a per-cell or per-row allocation would blow
// through it by two orders of magnitude.
func TestInternedAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	tb := New("t", "A", "B", "C", "D")
	tb.Grow(512)
	for i := 0; i < 512; i++ {
		d := i % 32
		tb.Append(fmt.Sprintf("p%d", d), fmt.Sprintf("c%d", d%8), "cap", "lang")
	}
	allocs := testing.AllocsPerRun(20, func() {
		tb.Interned()
	})
	// Budget: the Interned struct, groupOf, groups, the member-list arena,
	// 4 dicts with their value slices and maps, the signature map and its 32
	// key copies. All size with DISTINCT counts except groupOf and the arena
	// (one allocation each regardless of row count).
	if allocs > 120 {
		t.Errorf("Interned() allocates %.0f per table, want <= 120 (distinct-bounded)", allocs)
	}
}

// TestAppendArena pins the arena fast path: after Grow, appended rows carve
// out of one shared backing array (capacity-clamped so rows cannot bleed
// into each other) and appending allocates nothing per row.
func TestAppendArena(t *testing.T) {
	tb := New("t", "A", "B")
	tb.Grow(3)
	tb.Append("a1", "b1")
	tb.Append("a2", "b2")
	// The three-index cap must prevent an append to row 0's slice from
	// clobbering row 1's first cell.
	r0 := append(tb.Rows[0], "overflow")
	if tb.Rows[1][0] != "a2" {
		t.Fatalf("append to row 0 clobbered row 1: %v", tb.Rows[1])
	}
	_ = r0
	if raceEnabled {
		return
	}
	big := New("t", "A", "B")
	big.Grow(1200)
	// Reuse one argument slice: a literal at the call site would itself
	// allocate per call (variadic args escape into the fallback path).
	row := []string{"x", "y"}
	allocs := testing.AllocsPerRun(1000, func() {
		big.Append(row...)
	})
	if allocs > 0.1 {
		t.Errorf("arena Append allocates %.2f per row, want 0", allocs)
	}
}

// TestExtendMatchesFreshBuild pins the Extend contract: extending a view
// over appended rows yields a view observationally identical to a fresh
// build over the merged table — same codes, same group IDs, same members.
func TestExtendMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []string{"a", "b", "c", "dd", "ee"}
	for trial := 0; trial < 50; trial++ {
		cols := 1 + rng.Intn(4)
		total := 1 + rng.Intn(40)
		split := rng.Intn(total + 1)
		rows := make([][]string, total)
		for i := range rows {
			row := make([]string, cols)
			for j := range row {
				row[j] = vals[rng.Intn(len(vals))]
			}
			rows[i] = row
		}
		tbl := &Table{Name: "t", Columns: make([]string, cols), Rows: rows[:split]}
		in := tbl.Interned()
		tbl.Rows = rows
		in.Extend(tbl)
		want := tbl.Interned()
		if in.NumRows() != want.NumRows() || in.NumGroups() != want.NumGroups() {
			t.Fatalf("trial %d: rows/groups %d/%d, want %d/%d",
				trial, in.NumRows(), in.NumGroups(), want.NumRows(), want.NumGroups())
		}
		for i := 0; i < total; i++ {
			if in.GroupOf(i) != want.GroupOf(i) {
				t.Fatalf("trial %d: GroupOf(%d) = %d, want %d", trial, i, in.GroupOf(i), want.GroupOf(i))
			}
			for j := 0; j < cols; j++ {
				if got, w := in.Dict(j).Code(rows[i][j]), want.Dict(j).Code(rows[i][j]); got != w {
					t.Fatalf("trial %d: code of cell (%d,%d) = %d, want %d", trial, i, j, got, w)
				}
			}
		}
		if !reflect.DeepEqual(in.Groups(), want.Groups()) {
			t.Fatalf("trial %d: groups %+v, want %+v", trial, in.Groups(), want.Groups())
		}
		for j := 0; j < cols; j++ {
			if in.Dict(j).Len() != want.Dict(j).Len() {
				t.Fatalf("trial %d: dict %d len %d, want %d", trial, j, in.Dict(j).Len(), want.Dict(j).Len())
			}
		}
	}
}

// TestExtendAllocationsPerDelta pins Extend's cost to the delta: extending a
// view of many signatures by k rows allocates within a bound linear in k —
// the touched groups' member lists, new keys and values, a few slice and map
// growths — and independent of how many rows and groups the view holds.
func TestExtendAllocationsPerDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	const k, runs = 64, 5
	for _, groups := range []int{2_000, 20_000} {
		tb := New("t", "A", "B")
		tb.Grow(groups + k)
		for i := 0; i < groups; i++ {
			tb.Append(fmt.Sprintf("p%d", i), fmt.Sprintf("c%d", i%97))
		}
		// AllocsPerRun calls f runs+1 times, each on a fresh view.
		views := make([]*Interned, runs+1)
		for i := range views {
			views[i] = tb.Interned()
		}
		// Half the delta repeats existing signatures, half is new.
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				tb.Append(tb.Rows[i*7]...)
			} else {
				tb.Append(fmt.Sprintf("new%d", i), "c1")
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			views[next].Extend(tb)
			next++
		})
		if bound := float64(4*k + 32); allocs > bound {
			t.Errorf("%d groups: Extend by %d rows allocates %.0f, want <= %.0f", groups, k, allocs, bound)
		}
		if got := views[runs].NumRows(); got != groups+k {
			t.Fatalf("%d groups: extended view covers %d rows, want %d", groups, got, groups+k)
		}
	}
}
