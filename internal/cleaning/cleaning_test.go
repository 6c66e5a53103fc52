package cleaning

import (
	"math/rand"
	"testing"

	"katara/internal/fd"
	"katara/internal/table"
)

func TestEQRepairsToPlurality(t *testing.T) {
	tb := table.New("t", "B", "C")
	tb.Append("Italy", "Rome")
	tb.Append("Italy", "Rome")
	tb.Append("Italy", "Madrid") // minority value gets repaired
	tb.Append("Spain", "Madrid")
	f := fd.New([]int{0}, []int{1})
	changes := EQ(tb, []fd.FD{f})
	if len(changes) != 1 {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].Row != 2 || changes[0].To != "Rome" {
		t.Fatalf("change = %+v", changes[0])
	}
	if len(fd.Violations(tb, f)) != 0 {
		t.Fatal("table still violates the FD")
	}
}

func TestEQMinimalityCanBeWrong(t *testing.T) {
	// The paper's point about heuristic repairs: when the wrong value is
	// the majority, EQ "repairs" the correct cells.
	tb := table.New("t", "B", "C")
	tb.Append("Italy", "Madrid")
	tb.Append("Italy", "Madrid")
	tb.Append("Italy", "Rome")
	f := fd.New([]int{0}, []int{1})
	changes := EQ(tb, []fd.FD{f})
	if len(changes) != 1 || changes[0].To != "Madrid" {
		t.Fatalf("expected EQ to (incorrectly) prefer the majority: %v", changes)
	}
}

func TestEQNoViolationsNoChanges(t *testing.T) {
	tb := table.New("t", "B", "C")
	tb.Append("Italy", "Rome")
	tb.Append("Spain", "Madrid")
	if ch := EQ(tb, []fd.FD{fd.New([]int{0}, []int{1})}); len(ch) != 0 {
		t.Fatalf("changes = %v", ch)
	}
}

func TestEQMultipleFDsFixpoint(t *testing.T) {
	// A -> B and B -> C: repairing B can create/expose violations of B -> C.
	tb := table.New("t", "A", "B", "C")
	tb.Append("k1", "Italy", "Rome")
	tb.Append("k1", "Italia", "Rome2")
	tb.Append("k1", "Italy", "Rome")
	tb.Append("k2", "Italy", "Roma")
	fds := []fd.FD{fd.New([]int{0}, []int{1}), fd.New([]int{1}, []int{2})}
	EQ(tb, fds)
	for _, f := range fds {
		if len(fd.Violations(tb, f)) != 0 {
			t.Fatalf("fixpoint not reached for %v", f)
		}
	}
}

func TestEQDeterministic(t *testing.T) {
	mk := func() *table.Table {
		tb := table.New("t", "B", "C")
		tb.Append("Italy", "Rome")
		tb.Append("Italy", "Madrid") // tie: plurality broken lexicographically
		return tb
	}
	a, b := mk(), mk()
	EQ(a, []fd.FD{fd.New([]int{0}, []int{1})})
	EQ(b, []fd.FD{fd.New([]int{0}, []int{1})})
	if d, _ := a.Diff(b); len(d) != 0 {
		t.Fatal("EQ nondeterministic")
	}
	if a.Rows[0][1] != "Madrid" || a.Rows[1][1] != "Madrid" {
		t.Fatalf("tie-break picked %q", a.Rows[0][1])
	}
}

func TestSCARERepairsWithRedundancy(t *testing.T) {
	tb := table.New("t", "B", "C")
	for i := 0; i < 10; i++ {
		tb.Append("Italy", "Rome")
	}
	tb.Append("Italy", "Madrid") // error with strong counter-evidence
	for i := 0; i < 10; i++ {
		tb.Append("Spain", "Madrid")
	}
	changes := SCARE(tb, []int{0}, []int{1}, SCAREOptions{})
	found := false
	for _, c := range changes {
		if c.Row == 10 && c.To == "Rome" {
			found = true
		}
		if c.From == "Rome" || (c.From == "Madrid" && c.Row != 10) {
			t.Fatalf("SCARE corrupted a clean cell: %+v", c)
		}
	}
	if !found {
		t.Fatalf("SCARE missed the error: %v", changes)
	}
}

func TestSCARENoRedundancyNoRepair(t *testing.T) {
	// Without repetition the model has no evidence to beat current values —
	// the reason SCARE is N.A. on WikiTables/WebTables (§7.4).
	tb := table.New("t", "B", "C")
	tb.Append("Italy", "Rome")
	tb.Append("Spain", "Madrid")
	tb.Append("France", "Paris")
	if ch := SCARE(tb, []int{0}, []int{1}, SCAREOptions{}); len(ch) != 0 {
		t.Fatalf("SCARE changed cells without evidence: %v", ch)
	}
}

func TestSCAREThresholdControlsAggressiveness(t *testing.T) {
	mk := func() *table.Table {
		tb := table.New("t", "B", "C")
		for i := 0; i < 4; i++ {
			tb.Append("Italy", "Rome")
		}
		tb.Append("Italy", "Madrid")
		return tb
	}
	low := mk()
	chLow := SCARE(low, []int{0}, []int{1}, SCAREOptions{Threshold: 0.1})
	high := mk()
	chHigh := SCARE(high, []int{0}, []int{1}, SCAREOptions{Threshold: 50})
	if len(chLow) == 0 {
		t.Fatal("low threshold should repair")
	}
	if len(chHigh) != 0 {
		t.Fatalf("absurd threshold should block repairs: %v", chHigh)
	}
}

func TestSCAREDeterministicUnderShuffledInsertOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := [][]string{}
	for i := 0; i < 20; i++ {
		rows = append(rows, []string{"Italy", "Rome"})
	}
	rows = append(rows, []string{"Italy", "Madrid"})
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	tb := table.New("t", "B", "C")
	for _, r := range rows {
		tb.Append(r[0], r[1])
	}
	ch1 := SCARE(tb.Clone(), []int{0}, []int{1}, SCAREOptions{})
	ch2 := SCARE(tb.Clone(), []int{0}, []int{1}, SCAREOptions{})
	if len(ch1) != len(ch2) {
		t.Fatal("SCARE nondeterministic")
	}
}
