// Package fd models functional dependencies X → Y over tables, the rule
// language the EQ and SCARE baselines consume (§7.4, Appendix D).
package fd

import (
	"fmt"
	"sort"
	"strings"

	"katara/internal/table"
)

// FD is a functional dependency from LHS columns to RHS columns.
type FD struct {
	LHS []int
	RHS []int
}

// New builds an FD, defensively copying the column lists.
func New(lhs, rhs []int) FD {
	return FD{LHS: append([]int(nil), lhs...), RHS: append([]int(nil), rhs...)}
}

// String renders the FD with column indices.
func (f FD) String() string {
	return fmt.Sprintf("%s -> %s", joinCols(f.LHS), joinCols(f.RHS))
}

func joinCols(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("A%d", c)
	}
	return strings.Join(parts, ",")
}

// Key extracts the LHS key of a row.
func (f FD) Key(row []string) string {
	parts := make([]string, len(f.LHS))
	for i, c := range f.LHS {
		parts[i] = row[c]
	}
	return strings.Join(parts, "\x00")
}

// Violation is a set of rows sharing an LHS key but disagreeing on some RHS
// column.
type Violation struct {
	FD   FD
	Col  int   // the disagreeing RHS column
	Rows []int // all rows in the violating equivalence class
}

// Violations returns every violation of f in t, deterministic order.
func Violations(t *table.Table, f FD) []Violation {
	groups := map[string][]int{}
	var keys []string
	for i, row := range t.Rows {
		k := f.Key(row)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.Strings(keys)
	var out []Violation
	for _, k := range keys {
		rows := groups[k]
		if len(rows) < 2 {
			continue
		}
		for _, col := range f.RHS {
			first := t.Rows[rows[0]][col]
			for _, r := range rows[1:] {
				if t.Rows[r][col] != first {
					out = append(out, Violation{FD: f, Col: col, Rows: rows})
					break
				}
			}
		}
	}
	return out
}
