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
// assigned per *exact* string: rows group together exactly when their cells
// are byte-identical.
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
		st := kb.Store
		for _, o := range st.Objects(st.Res(fmt.Sprintf("adv:collision_%d", i)), st.LabelID) {
			decoys = append(decoys, st.Term(o).Value)
		}
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

	// Each decoy row gets a probe that differs from it only in column 0,
	// where it carries the imitated value.
	base := tb.NumRows()
	for i, d := range decoys {
		orig := values[i%len(values)]
		tb.Append(orig, orig, d, d)
	}

	in := tb.Interned()
	// The decoy rows were appended in exact-duplicate pairs: each pair must
	// collapse into one signature group, and a decoy label must never share
	// a dictionary code with the value it imitates, which would put the
	// decoy row and its probe in one group.
	decoyBase := spec.Table.NumRows()
	for k := 0; k < len(decoys); k++ {
		r := decoyBase + 2*k
		if in.GroupOf(r) != in.GroupOf(r+1) {
			t.Fatalf("duplicate decoy rows %d/%d landed in different groups", r, r+1)
		}
		d, orig := decoys[k], values[k%len(values)]
		if same := in.GroupOf(r) == in.GroupOf(base+k); same != (d == orig) {
			t.Fatalf("near-duplicates %q and %q: rows grouped together = %v", d, orig, same)
		}
	}
}
