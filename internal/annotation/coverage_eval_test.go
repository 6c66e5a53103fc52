package annotation

import (
	"reflect"
	"strings"
	"testing"

	"katara/internal/pattern"
	"katara/internal/telemetry"
)

// TestEvaluateCoverageMatchesInline: the per-shard coverage entry point must
// produce exactly the matches the serial annotator evaluates inline —
// AnnotateWith over the precomputed slice equals Annotate from scratch.
func TestEvaluateCoverageMatchesInline(t *testing.T) {
	f := newFixture()
	tel := telemetry.New()

	ann := newAnnotator(f, false)
	out := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverage(f.tbl, 0, f.tbl.NumRows(), out, tel)
	for i, m := range out {
		if m == nil {
			t.Fatalf("row %d: nil match", i)
		}
	}
	if got := tel.Get(telemetry.KBLookups); got != int64(f.tbl.NumRows()) {
		t.Fatalf("KBLookups = %d, want one per row (%d)", got, f.tbl.NumRows())
	}

	withPre := newAnnotator(newFixture(), false).AnnotateWith(f.tbl, out)
	inline := newAnnotator(newFixture(), false).Annotate(f.tbl)
	if !reflect.DeepEqual(withPre, inline) {
		t.Fatalf("AnnotateWith(precomputed) differs from inline Annotate\npre:    %+v\ninline: %+v",
			withPre.Tuples, inline.Tuples)
	}
}

// TestEvaluateCoverageClampsRange: an out-of-bounds hi is clamped to the
// table, leaving rows outside [lo, hi) untouched.
func TestEvaluateCoverageClampsRange(t *testing.T) {
	f := newFixture()
	ann := newAnnotator(f, false)
	out := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverage(f.tbl, 1, 100, out, telemetry.New())
	if out[0] != nil {
		t.Fatal("row 0 outside [1, hi) was evaluated")
	}
	for i := 1; i < f.tbl.NumRows(); i++ {
		if out[i] == nil {
			t.Fatalf("row %d inside the clamped range not evaluated", i)
		}
	}
}

// TestEvaluateCoverageGroups: duplicate rows share one evaluation — the
// group variant evaluates each signature's representative once and fans the
// *same* Match out to every member, matching the per-row variant's verdicts.
func TestEvaluateCoverageGroups(t *testing.T) {
	f := newFixture()
	// Duplicate every fixture row once so groups have 2 members each.
	n := f.tbl.NumRows()
	for i := 0; i < n; i++ {
		f.tbl.Append(f.tbl.Rows[i]...)
	}
	in := f.tbl.Interned()
	if in.NumGroups() != n {
		t.Fatalf("NumGroups = %d, want %d", in.NumGroups(), n)
	}

	ann := newAnnotator(f, false)
	tel := telemetry.New()
	byGroup := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverageGroups(f.tbl, in.Groups(), 0, in.NumGroups(), byGroup, tel)
	if got := tel.Get(telemetry.KBLookups); got != int64(n) {
		t.Fatalf("KBLookups = %d, want one per group (%d)", got, n)
	}

	byRow := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverage(f.tbl, 0, f.tbl.NumRows(), byRow, telemetry.New())
	for i := range byGroup {
		if byGroup[i] == nil {
			t.Fatalf("row %d: nil match from group evaluation", i)
		}
		if !reflect.DeepEqual(byGroup[i], byRow[i]) {
			t.Fatalf("row %d: group match %+v != per-row match %+v", i, byGroup[i], byRow[i])
		}
	}
	// Members of one group share the identical Match pointer.
	for _, gr := range in.Groups() {
		for _, row := range gr.Rows {
			if byGroup[row] != byGroup[gr.Rep] {
				t.Fatalf("row %d does not share its group rep %d's match", row, gr.Rep)
			}
		}
	}

	// A clamped group range leaves other groups' rows untouched.
	partial := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverageGroups(f.tbl, in.Groups(), 1, 100, partial, telemetry.New())
	for _, row := range in.Groups()[0].Rows {
		if partial[row] != nil {
			t.Fatalf("row %d of group 0 outside [1, hi) was evaluated", row)
		}
	}
}

// TestDegradePolicyString: the Stringer names both policies and falls back
// to the numeric form for unknown values.
func TestDegradePolicyString(t *testing.T) {
	if got := DegradeTrustKB.String(); got != "trust-kb" {
		t.Errorf("DegradeTrustKB = %q", got)
	}
	if got := DegradeMarkUnknown.String(); got != "mark-unknown" {
		t.Errorf("DegradeMarkUnknown = %q", got)
	}
	if got := DegradePolicy(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown policy = %q, want numeric fallback", got)
	}
}
