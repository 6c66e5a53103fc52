// Package table implements the relational-table substrate: the (possibly
// dirty) input tables KATARA cleans, CSV I/O, seeded error injection for the
// repair experiments (§7.4: "we injected 10% random errors into columns that
// are covered by the patterns"), and cell-level diffing against ground truth.
package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"slices"
	"strings"
)

// Table is a named relation. Column headers may be opaque ("A", "B", ...) —
// KATARA never relies on them (§4.1).
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string

	// arena, when non-nil, is a flat cell store that Append carves rows out
	// of: one allocation for many rows instead of one []string per row. It
	// is populated by Grow and Clone; without one, Append keeps the row it
	// is given.
	arena []string
}

// New returns an empty table with the given columns.
func New(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.Columns) }

// Grow pre-allocates room for n more rows: the row-pointer slice, grown
// geometrically so repeated Grows amortise, plus a flat cell arena that the
// next n Appends copy their cells into.
func (t *Table) Grow(n int) {
	if n <= 0 || len(t.Columns) == 0 {
		return
	}
	t.Rows = slices.Grow(t.Rows, n)
	if cap(t.arena)-len(t.arena) < n*len(t.Columns) {
		t.arena = make([]string, 0, n*len(t.Columns))
	}
}

// Append adds a tuple. Its cells are copied into the arena when it has room
// (see Grow); otherwise the table keeps row itself. It panics if the arity is
// wrong — a programming error, not an input error.
func (t *Table) Append(row ...string) {
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("table %s: row arity %d != %d", t.Name, len(row), len(t.Columns)))
	}
	if cap(t.arena)-len(t.arena) >= len(row) {
		base := len(t.arena)
		t.arena = append(t.arena, row...)
		// Full three-index cap: appends to one row can never spill into the
		// next row's cells.
		row = t.arena[base:len(t.arena):len(t.arena)]
	}
	t.Rows = append(t.Rows, row)
}

// Cell returns the value at (row, col).
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }

// Clone deep-copies the table. The copy is arena-backed: all cells live in
// one flat allocation rather than one slice per row.
func (t *Table) Clone() *Table { return t.CloneGrow(0) }

// CloneGrow is Clone with room for n more rows in the copy's row slice, but
// not in its arena: a copy that is then appended to does not copy its row
// headers again.
func (t *Table) CloneGrow(n int) *Table {
	nt := &Table{Name: t.Name, Columns: append([]string(nil), t.Columns...)}
	nt.Rows = make([][]string, len(t.Rows), len(t.Rows)+n)
	var cells int
	for _, r := range t.Rows {
		cells += len(r)
	}
	arena := make([]string, 0, cells)
	for i, r := range t.Rows {
		base := len(arena)
		arena = append(arena, r...)
		nt.Rows[i] = arena[base:len(arena):len(arena)]
	}
	nt.arena = arena[:len(arena):len(arena)]
	return nt
}

// crRun matches a run of CRs that ends a line inside a quoted field.
var crRun = regexp.MustCompile("\r+\n")

// ReadCSV parses a table from CSV. The first record is the header. Inside a
// quoted field, every run of CRs before an LF reads as the LF: encoding/csv
// drops only the last CR of such a run, so without this each write/read
// cycle would shed one more CR.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: reading %s: %w", name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("table: %s: empty input", name)
	}
	for _, rec := range recs {
		for i, f := range rec {
			if strings.Contains(f, "\r\n") {
				rec[i] = crRun.ReplaceAllString(f, "\n")
			}
		}
	}
	t := New(name, recs[0]...)
	for i, rec := range recs[1:] {
		if len(rec) != len(t.Columns) {
			return nil, fmt.Errorf("table: %s: row %d has %d fields, want %d", name, i+1, len(rec), len(t.Columns))
		}
		t.Rows = append(t.Rows, rec)
	}
	return t, nil
}

// WriteCSV serialises the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CellRef addresses one cell.
type CellRef struct{ Row, Col int }

// Diff returns the cells where t and other disagree. Tables must have the
// same shape.
func (t *Table) Diff(other *Table) ([]CellRef, error) {
	if t.NumRows() != other.NumRows() || t.NumCols() != other.NumCols() {
		return nil, fmt.Errorf("table: shape mismatch %dx%d vs %dx%d",
			t.NumRows(), t.NumCols(), other.NumRows(), other.NumCols())
	}
	var out []CellRef
	for i := range t.Rows {
		for j := range t.Rows[i] {
			if t.Rows[i][j] != other.Rows[i][j] {
				out = append(out, CellRef{Row: i, Col: j})
			}
		}
	}
	return out, nil
}

// InjectErrors corrupts the table in place: each tuple is modified with
// probability rate; a corrupted tuple gets one randomly chosen cell among
// cols overwritten with a wrong value drawn from the same column's domain
// (a different row's value) or, with small probability, a typo. It returns
// the corrupted cell references. This mirrors §7.4's error model.
func InjectErrors(t *Table, cols []int, rate float64, rng *rand.Rand) []CellRef {
	if len(cols) == 0 || t.NumRows() < 2 {
		return nil
	}
	var injected []CellRef
	for i := range t.Rows {
		if rng.Float64() >= rate {
			continue
		}
		col := cols[rng.Intn(len(cols))]
		orig := t.Rows[i][col]
		repl := orig
		for attempt := 0; attempt < 20 && repl == orig; attempt++ {
			if rng.Float64() < 0.15 {
				repl = typo(orig, rng)
			} else {
				repl = t.Rows[rng.Intn(len(t.Rows))][col]
			}
		}
		if repl == orig {
			continue // column is constant; nothing to corrupt with
		}
		t.Rows[i][col] = repl
		injected = append(injected, CellRef{Row: i, Col: col})
	}
	return injected
}

// typo applies a random single-character edit.
func typo(s string, rng *rand.Rand) string {
	if s == "" {
		return "x"
	}
	r := []rune(s)
	i := rng.Intn(len(r))
	switch rng.Intn(3) {
	case 0: // substitution
		r[i] = rune('a' + rng.Intn(26))
	case 1: // deletion
		r = append(r[:i], r[i+1:]...)
	default: // duplication
		r = append(r[:i+1], r[i:]...)
	}
	return string(r)
}
