package table

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := New("soccer", "A", "B", "C")
	t.Append("Rossi", "Italy", "Rome")
	t.Append("Klate", "S. Africa", "Pretoria")
	t.Append("Pirlo", "Italy", "Madrid")
	return t
}

func TestAppendAndAccess(t *testing.T) {
	tb := sample()
	if tb.NumRows() != 3 || tb.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Cell(2, 2) != "Madrid" {
		t.Fatalf("Cell(2,2) = %q", tb.Cell(2, 2))
	}
	if tb.Column("B") != 1 || tb.Column("Z") != -1 {
		t.Fatal("Column lookup broken")
	}
	if got := tb.Rows[0][1]; got != "Italy" {
		t.Fatalf("Rows[0][1] = %q", got)
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	sample().Append("only-one")
}

func TestCloneIsDeep(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Rows[0][0] = "changed"
	if a.Rows[0][0] == "changed" {
		t.Fatal("Clone shares row storage")
	}
	b.Columns[0] = "X"
	if a.Columns[0] == "X" {
		t.Fatal("Clone shares column storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := sample()
	a.Append(`comma, "quote"`, "new\nline", "")
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV("soccer", &buf)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 0 {
		t.Fatalf("round trip diff: %v", diff)
	}
}

// TestReadCSVCollapsesCRRuns: inside a quoted field, a run of CRs before an
// LF reads as the LF, in the header as in the rows, while CRs that end no
// line stay. One read is then a fixpoint of the write/read cycle.
func TestReadCSVCollapsesCRRuns(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"\"x\r\ny\"", "x\ny"},
		{"\"x\r\r\r\ny\"", "x\ny"},
		{"\"\r\r\r\r\n\"", "\n"},
		{"\"x\ry\"", "x\ry"},
		{"\"x\r\r\"", "x\r\r"},
		{"\"\r\r\nx\r\r\"", "\nx\r\r"},
	} {
		tab, err := ReadCSV("cr", strings.NewReader(c.in+"\n"+c.in+"\n"))
		if err != nil {
			t.Fatalf("ReadCSV(%q): %v", c.in, err)
		}
		if tab.Columns[0] != c.want || tab.Rows[0][0] != c.want {
			t.Errorf("ReadCSV(%q): header %q, cell %q, want %q", c.in, tab.Columns[0], tab.Rows[0][0], c.want)
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV("cr", &buf)
		if err != nil {
			t.Fatalf("re-read of %q: %v", c.in, err)
		}
		if again.Columns[0] != c.want || again.Rows[0][0] != c.want {
			t.Errorf("re-read of %q: header %q, cell %q, want %q", c.in, again.Columns[0], again.Rows[0][0], c.want)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1,2,3\n")); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestDiff(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Rows[2][2] = "Rome"
	diff, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 1 || diff[0] != (CellRef{Row: 2, Col: 2}) {
		t.Fatalf("diff = %v", diff)
	}
	c := New("other", "A")
	if _, err := a.Diff(c); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestInjectErrorsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := New("t", "A", "B")
	for i := 0; i < 5000; i++ {
		tb.Append("v"+string(rune('a'+i%26)), "w"+string(rune('a'+i%17)))
	}
	clean := tb.Clone()
	injected := InjectErrors(tb, []int{0, 1}, 0.1, rng)
	frac := float64(len(injected)) / float64(tb.NumRows())
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("injection rate %f, want ~0.10", frac)
	}
	// Every reported cell must actually differ from the clean table, and
	// nothing else may differ.
	diff, _ := clean.Diff(tb)
	if len(diff) != len(injected) {
		t.Fatalf("diff has %d cells, injected %d", len(diff), len(injected))
	}
	seen := map[CellRef]bool{}
	for _, c := range diff {
		seen[c] = true
	}
	for _, c := range injected {
		if !seen[c] {
			t.Fatalf("injected cell %v not in diff", c)
		}
	}
}

func TestInjectErrorsRespectsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := New("t", "A", "B", "C")
	for i := 0; i < 200; i++ {
		tb.Append("a"+string(rune('0'+i%10)), "b"+string(rune('0'+i%7)), "c"+string(rune('0'+i%5)))
	}
	injected := InjectErrors(tb, []int{1}, 0.5, rng)
	if len(injected) == 0 {
		t.Fatal("no errors injected")
	}
	for _, c := range injected {
		if c.Col != 1 {
			t.Fatalf("error injected outside allowed columns: %v", c)
		}
	}
}

func TestInjectErrorsConstantColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := New("t", "A")
	for i := 0; i < 50; i++ {
		tb.Append("same")
	}
	// A constant column can only be corrupted by typos; whatever happens,
	// reported refs must be real changes.
	clean := tb.Clone()
	injected := InjectErrors(tb, []int{0}, 1.0, rng)
	diff, _ := clean.Diff(tb)
	if len(diff) != len(injected) {
		t.Fatalf("diff %d vs injected %d", len(diff), len(injected))
	}
}

func TestInjectErrorsDeterministic(t *testing.T) {
	mk := func() (*Table, []CellRef) {
		tb := New("t", "A", "B")
		for i := 0; i < 300; i++ {
			tb.Append("a"+string(rune('0'+i%10)), "b"+string(rune('0'+i%9)))
		}
		refs := InjectErrors(tb, []int{0, 1}, 0.2, rand.New(rand.NewSource(99)))
		return tb, refs
	}
	t1, r1 := mk()
	t2, r2 := mk()
	if len(r1) != len(r2) {
		t.Fatal("nondeterministic injection count")
	}
	if d, _ := t1.Diff(t2); len(d) != 0 {
		t.Fatal("nondeterministic corruption")
	}
}

func TestTypoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(s string) bool {
		out := typo(s, rng)
		// A typo changes length by at most 1 and never panics.
		dl := len([]rune(out)) - len([]rune(s))
		if s == "" {
			return out == "x"
		}
		return dl >= -1 && dl <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
