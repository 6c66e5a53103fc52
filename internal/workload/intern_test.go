package workload

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestInternerRoundTripsCollisionLabels drives the table interner with the
// adversarial value distribution InjectLabelCollisions produces: labels one
// character edit away from real table values. Near-duplicates are exactly
// where a sloppy interner would go wrong (sharing a code across values that
// merely normalise alike), so the test pins that dictionary codes are
// assigned per *exact* string and every cell round-trips byte-identically.
// It lives here rather than in internal/table because workload imports
// table — the interner package cannot exercise the adversary directly.
func TestInternerRoundTripsCollisionLabels(t *testing.T) {
	w := testWorld()
	kb := DBpediaLike(w, 5)
	spec := PersonTable(w, 6, 200)
	var values []string
	for j := 0; j < 2; j++ {
		for _, row := range spec.Table.Rows {
			values = append(values, row[j])
		}
	}

	rng := rand.New(rand.NewSource(9))
	added := InjectLabelCollisions(kb, rng, values, 60)
	if added == 0 {
		t.Fatal("no collisions injected; the test exercises nothing")
	}
	var decoys []string
	for i := 0; i < 60; i++ {
		decoys = append(decoys, kb.Store.LabelsOf(kb.Store.Res(fmt.Sprintf("adv:collision_%d", i)))...)
	}
	if len(decoys) != added {
		t.Fatalf("harvested %d decoy labels, want %d", len(decoys), added)
	}

	// Interleave originals with their near-duplicate decoys, repeating rows
	// so signature grouping has real work to do.
	tb := spec.Table.Clone()
	for i, d := range decoys {
		orig := values[i%len(values)]
		tb.Append(d, orig, d, d)
		tb.Append(d, orig, d, d) // exact duplicate: must share a group
	}

	in := tb.Interned()
	for i := range tb.Rows {
		for j, cell := range tb.Rows[i] {
			if got := in.Dict(j).Value(in.Dict(j).Code(cell)); got != cell {
				t.Fatalf("cell (%d,%d) round-tripped %q, want %q", i, j, got, cell)
			}
		}
	}
	// The decoy rows were appended in exact-duplicate pairs: each pair must
	// collapse into one signature group, and a decoy label must never share
	// a dictionary code with the value it imitates.
	base := spec.Table.NumRows()
	for k := 0; k < len(decoys); k++ {
		r := base + 2*k
		if in.GroupOf(r) != in.GroupOf(r+1) {
			t.Fatalf("duplicate decoy rows %d/%d landed in different groups", r, r+1)
		}
		d, orig := decoys[k], values[k%len(values)]
		if d != orig && in.Dict(0).Code(d) == in.Dict(0).Code(orig) && in.Dict(0).Code(d) >= 0 {
			t.Fatalf("near-duplicates %q and %q share a dictionary code", d, orig)
		}
	}
}
