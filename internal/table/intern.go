// Interned columnar backing: per-column string dictionaries of int32 codes,
// with the rows grouped by distinct row signature. Dirty tables repeat a small
// set of distinct values (the paper's 316K-row Person table aggregates
// extracted bios, so the same person recurs thousands of times), so the
// cleaning pipeline wants equality to be an int compare and per-row work to
// collapse onto per-distinct-signature work. The Interned view is derived from
// the Table and never replaces it — .Rows stays the API — and it is built
// fresh by each consumer (Rows may be mutated directly, e.g. by InjectErrors,
// so a cached view would have no invalidation hook).
package table

import (
	"encoding/binary"
)

// intern returns v's code in dict, one column's dictionary, assigning the
// next free code on first sight: codes are dense int32s in first-occurrence
// order.
func intern(dict map[string]int32, v string) int32 {
	if c, ok := dict[v]; ok {
		return c
	}
	c := int32(len(dict))
	dict[v] = c
	return c
}

// Group is one distinct row signature: the representative row (first
// occurrence) plus every row sharing the signature, in ascending row order.
type Group struct {
	Rep  int
	Rows []int
}

// Interned is the columnar dictionary view of a Table: per-column
// dictionaries and the rows grouped by signature (the tuple of column codes) in
// first-occurrence order. Two rows are duplicates exactly when they share a
// group; all per-row work that is a pure function of the tuple values can
// then run once per group and fan out.
//
// The view is immutable and safe for concurrent readers. It snapshots the
// Table at construction time: mutate Rows and the view is stale — rebuild it.
type Interned struct {
	cols  int
	rows  int
	dicts []map[string]int32
	// sigs maps each signature (the packed little-endian tuple of the row's
	// column codes) to its group. It lives as long as the view, so Extend
	// probes it instead of rebuilding it from every group.
	sigs    map[string]int32
	groupOf []int32
	groups  []Group
}

// Interned builds the columnar dictionary view of t. Cost is one map probe
// per cell plus one per row; memory is 4 bytes per row plus the dictionaries
// of distinct values and one signature key per group.
func (t *Table) Interned() *Interned {
	cols := t.NumCols()
	in := &Interned{
		cols:    cols,
		rows:    len(t.Rows),
		dicts:   make([]map[string]int32, cols),
		sigs:    make(map[string]int32),
		groupOf: make([]int32, len(t.Rows)),
	}
	for j := range in.dicts {
		in.dicts[j] = make(map[string]int32)
	}
	sig := make([]byte, 4*cols)
	var sizes []int32 // group -> member count, filled in pass 1
	for i, row := range t.Rows {
		g := in.signature(row, sig)
		if int(g) == len(sizes) {
			sizes = append(sizes, 0)
		}
		in.groupOf[i] = g
		sizes[g]++
	}
	// Pass 2: carve every group's member list out of one flat allocation —
	// the build stays distinct-bounded instead of paying append growth per
	// group (pinned by TestInternedAllocationLean).
	flat := make([]int, len(t.Rows))
	in.groups = make([]Group, len(sizes))
	off := 0
	for g, n := range sizes {
		in.groups[g].Rows = flat[off : off : off+int(n)]
		off += int(n)
	}
	for i := range t.Rows {
		g := in.groupOf[i]
		in.groups[g].Rows = append(in.groups[g].Rows, i)
		if len(in.groups[g].Rows) == 1 {
			in.groups[g].Rep = i
		}
	}
	return in
}

// signature interns row's cells, packs their codes into sig and returns the
// row's group, the next free group ID when the signature is new.
func (in *Interned) signature(row []string, sig []byte) int32 {
	for j := 0; j < in.cols && j < len(row); j++ {
		binary.LittleEndian.PutUint32(sig[4*j:], uint32(intern(in.dicts[j], row[j])))
	}
	// string(sig) in the map read does not allocate; the insert path
	// copies the key once per distinct signature only.
	g, ok := in.sigs[string(sig)]
	if !ok {
		g = int32(len(in.sigs))
		in.sigs[string(sig)] = g
	}
	return g
}

// Extend grows the view in place over rows appended to t since the view was
// built (or last extended), preserving every existing dictionary code and
// group ID: after Extend, the view is observationally identical to a fresh
// t.Interned() — new distinct values take the next free codes and new
// signatures the next group IDs, both in first-occurrence order, exactly as
// a from-scratch build over the merged table would assign them. Cost is
// O(delta) map probes and appends, plus copying the member lists of the
// groups the delta touches.
//
// Extend assumes rectangular rows (every row as wide as the header), the
// invariant the ingestion paths enforce. It is a write to the view: callers
// must serialise it against concurrent readers, the same single-writer
// contract the KB follows between pipeline stages.
func (in *Interned) Extend(t *Table) {
	newRows := len(t.Rows)
	if newRows <= in.rows {
		return
	}
	sig := make([]byte, 4*in.cols)
	for i := in.rows; i < newRows; i++ {
		g := in.signature(t.Rows[i], sig)
		if int(g) == len(in.groups) {
			in.groups = append(in.groups, Group{Rep: i})
		}
		in.groupOf = append(in.groupOf, g)
		// Existing groups' member lists were carved capacity-capped from the
		// build's flat arena, so appending reallocates the touched group's
		// backing without clobbering its neighbours.
		in.groups[g].Rows = append(in.groups[g].Rows, i)
	}
	in.rows = newRows
}

// NumRows returns the number of rows the view covers.
func (in *Interned) NumRows() int { return in.rows }

// NumGroups returns the number of distinct row signatures.
func (in *Interned) NumGroups() int { return len(in.groups) }

// Groups returns the signature groups in first-occurrence order. Shared
// slice; read-only.
func (in *Interned) Groups() []Group { return in.groups }

// GroupOf returns the signature-group index of row.
func (in *Interned) GroupOf(row int) int { return int(in.groupOf[row]) }
