package fanout

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"katara/internal/provenance"
	"katara/internal/telemetry"
)

// TestRanges checks the partitioner: full cover, contiguity, near-equal
// balance, and sane clamping at the edges.
func TestRanges(t *testing.T) {
	cases := []struct {
		n, par, want int
	}{
		{10, 3, 3}, {10, 1, 1}, {10, 10, 10}, {3, 8, 3},
		{1, 4, 1}, {10, 0, 1}, {10, -2, 1}, {1000, 7, 7},
	}
	for _, c := range cases {
		ranges := Ranges(c.n, c.par)
		if len(ranges) != c.want {
			t.Errorf("Ranges(%d, %d) = %d ranges, want %d", c.n, c.par, len(ranges), c.want)
			continue
		}
		lo := 0
		for _, rg := range ranges {
			if rg.Lo != lo || rg.Hi <= rg.Lo {
				t.Fatalf("Ranges(%d, %d): bad range %+v at lo=%d", c.n, c.par, rg, lo)
			}
			lo = rg.Hi
		}
		if lo != c.n {
			t.Errorf("Ranges(%d, %d) covers %d units", c.n, c.par, lo)
		}
		min, max := c.n, 0
		for _, rg := range ranges {
			if s := rg.Hi - rg.Lo; s < min {
				min = s
			} else if s > max {
				max = s
			}
		}
		if max > 0 && max-min > 1 {
			t.Errorf("Ranges(%d, %d): imbalance min=%d max=%d", c.n, c.par, min, max)
		}
	}
}

// TestRunInlineBelowThreshold: fewer than two units per goroutine runs f
// once on the caller with the parent's own instruments.
func TestRunInlineBelowThreshold(t *testing.T) {
	tel, rec := telemetry.New(), provenance.NewRecorder()
	calls := 0
	Run("test", 7, 4, tel, rec, func(p Part) {
		calls++
		if p.Lo != 0 || p.Hi != 7 || p.Tel != tel || p.Prov != rec {
			t.Fatalf("inline part = %+v, want the whole range with the parent instruments", p)
		}
	})
	if calls != 1 {
		t.Fatalf("inline run called f %d times", calls)
	}
}

// TestRunCoversAndMerges: every unit runs exactly once, each range records
// into a child pipeline and recorder, and the children merge into the
// parents after the join.
func TestRunCoversAndMerges(t *testing.T) {
	tel, rec := telemetry.New(), provenance.NewRecorder()
	const n = 100
	var hits [n]atomic.Int32
	Run("test", n, 4, tel, rec, func(p Part) {
		if p.Tel == tel || p.Prov == rec {
			t.Errorf("range %d records into the parent, not a child", p.Index)
		}
		for i := p.Lo; i < p.Hi; i++ {
			hits[i].Add(1)
			p.Tel.Inc(telemetry.KBLookups)
			p.Prov.RecordRepair(i, 1, nil)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("unit %d ran %d times", i, hits[i].Load())
		}
	}
	if got := tel.Get(telemetry.KBLookups); got != n {
		t.Fatalf("merged kb-lookups = %d, want %d", got, n)
	}
	var journal bytes.Buffer
	if err := rec.WriteJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(journal.String(), `"type":"repair"`); got != n {
		t.Fatalf("merged journal holds %d repair records, want %d", got, n)
	}
}

// TestRunRethrowsWorkerPanic: a panicking range surfaces on the caller as a
// *PanicError labelled with the stage and carrying the worker's stack, after
// every other range has joined.
func TestRunRethrowsWorkerPanic(t *testing.T) {
	PanicHook = func(stage string, part int) {
		if stage == "boom" && part == 1 {
			panic("injected")
		}
	}
	defer func() { PanicHook = nil }()
	var finished atomic.Int32
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatal("Run did not re-raise a *PanicError")
		}
		if pe.Stage != "boom" || pe.Value != "injected" || !strings.Contains(pe.Error(), "boom fan-out worker") {
			t.Fatalf("panic error = %+v (%v)", pe, pe)
		}
		if !strings.Contains(pe.Stack, "runGuarded") {
			t.Fatalf("stack is not the worker goroutine's:\n%s", pe.Stack)
		}
		if finished.Load() != 3 {
			t.Fatalf("%d ranges finished before the re-raise, want 3", finished.Load())
		}
	}()
	Run("boom", 40, 4, nil, nil, func(Part) { finished.Add(1) })
}
