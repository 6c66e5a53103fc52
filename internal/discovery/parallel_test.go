package discovery

import (
	"reflect"
	"testing"

	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/table"
)

// assertCandidatesEqual compares two candidate sets field by field: the
// ranked lists, the per-cell evidence (CellTypes, CellRels) and every pair's
// LiteralObject flag.
func assertCandidatesEqual(t *testing.T, a, b *Candidates) {
	t.Helper()
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		t.Fatalf("column candidates differ:\n%+v\nvs\n%+v", a.Columns, b.Columns)
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) {
		t.Fatalf("pair candidates differ:\n%+v\nvs\n%+v", a.Pairs, b.Pairs)
	}
}

// TestGenerateParallelLiteralObjectMatchesSequential pins LiteralObject on
// a table where the literal-object evidence is spread thinly over many rows
// and the resource-object evidence is concentrated in few: summed over rows
// the resource weight wins, while most rows (and any range holding only
// literal rows) lean literal. Only a single scoring pass over the whole
// evidence agrees with Generate.
func TestGenerateParallelLiteralObjectMatchesSequential(t *testing.T) {
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }
	add("c:Italy", rdf.IRIType, "country")
	lit("c:Italy", rdf.IRILabel, "Italy")
	lit("c:Italy", "motto", "59000000")
	add("c:France", rdf.IRIType, "country")
	lit("c:France", rdf.IRILabel, "France")
	add("cap:Paris", rdf.IRIType, "city")
	lit("cap:Paris", rdf.IRILabel, "Paris")
	add("c:France", "hasCapital", "cap:Paris")
	add("c:France", "largestCity", "cap:Paris")

	// Rows alternate literal (weight 1) and resource (weight 2) evidence:
	// 3 literal rows against 2 resource rows, 3 < 4 in summed weight.
	tbl := table.New("lit", "Country", "Value")
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			tbl.Append("Italy", "59000000")
		} else {
			tbl.Append("France", "Paris")
		}
	}
	seq := Generate(tbl, kbstats.New(kb), Options{})
	pc := seq.PairFor(0, 1)
	if pc == nil || pc.LiteralObject {
		t.Fatalf("sequential pair (0,1) = %+v, want a resource-object pair", pc)
	}
	for _, workers := range []int{2, 3} {
		par := GenerateParallel(tbl, kbstats.New(kb), Options{}, workers)
		if pp := par.PairFor(0, 1); pp == nil || pp.LiteralObject {
			t.Fatalf("workers=%d: pair (0,1) = %+v, want a resource-object pair", workers, pp)
		}
		assertCandidatesEqual(t, seq, par)
	}
}

func TestGenerateParallelMatchesSequential(t *testing.T) {
	kb := testKB()
	stats := kbstats.New(kb)
	tbl := countryCapitalTable()
	// Grow the table so it actually shards.
	for i := 0; i < 3; i++ {
		rows := append([][]string(nil), tbl.Rows...)
		for _, r := range rows {
			tbl.Rows = append(tbl.Rows, r)
		}
	}
	seq := Generate(tbl, stats, Options{})
	for _, workers := range []int{2, 3, 4, 8} {
		par := GenerateParallel(tbl, kbstats.New(kb), Options{}, workers)
		assertCandidatesEqual(t, seq, par)
	}
}

func TestGenerateParallelSmallTableFallsBack(t *testing.T) {
	kb := testKB()
	stats := kbstats.New(kb)
	tbl := countryCapitalTable() // 5 rows: below the sharding threshold
	par := GenerateParallel(tbl, stats, Options{}, 8)
	seq := Generate(tbl, kbstats.New(kb), Options{})
	assertCandidatesEqual(t, seq, par)
}

func TestGenerateParallelTopKAgrees(t *testing.T) {
	kb := testKB()
	tbl := countryCapitalTable()
	for i := 0; i < 4; i++ {
		rows := append([][]string(nil), tbl.Rows...)
		for _, r := range rows {
			tbl.Rows = append(tbl.Rows, r)
		}
	}
	seq := TopK(Generate(tbl, kbstats.New(kb), Options{}), 3)
	par := TopK(GenerateParallel(tbl, kbstats.New(kb), Options{}, 4), 3)
	if len(seq) != len(par) {
		t.Fatalf("pattern counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Key() != par[i].Key() {
			t.Fatalf("rank %d: %s vs %s", i, seq[i].Key(), par[i].Key())
		}
	}
}

func TestGenerateParallelWithSampling(t *testing.T) {
	kb := testKB()
	tbl := table.New("bc", "B", "C")
	for i := 0; i < 40; i++ {
		tbl.Append(countryCapitalTable().Rows[i%5][0], countryCapitalTable().Rows[i%5][1])
	}
	seq := Generate(tbl, kbstats.New(kb), Options{MaxRows: 16})
	par := GenerateParallel(tbl, kbstats.New(kb), Options{MaxRows: 16}, 4)
	assertCandidatesEqual(t, seq, par)
}
