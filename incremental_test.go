package katara

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"katara/internal/rdf"
)

// canonReport renders the semantically meaningful report surface — pattern,
// per-row labels, enrichment facts, repair rankings — resolving KB IDs
// through the producing cleaner's KB so reports from different stores
// compare by meaning, not by interning order.
func canonReport(rep *Report, kb *KB) string {
	var b strings.Builder
	if rep.Pattern != nil {
		fmt.Fprintf(&b, "pattern %s score %.9f\n", rep.Pattern.Key(), rep.Pattern.Score)
	}
	for _, ta := range rep.Annotations {
		fmt.Fprintf(&b, "row %d %v", ta.Row, ta.Label)
		for _, f := range ta.NewFacts {
			fmt.Fprintf(&b, " fact:%s", canonFact(f, kb))
		}
		b.WriteString("\n")
	}
	for _, f := range rep.NewFacts {
		fmt.Fprintf(&b, "newfact %s\n", canonFact(f, kb))
	}
	rows := make([]int, 0, len(rep.Repairs))
	for row := range rep.Repairs {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	for _, row := range rows {
		fmt.Fprintf(&b, "repairs %d:", row)
		for _, r := range rep.Repairs[row] {
			fmt.Fprintf(&b, " graph=%d cost=%.9f", r.Graph.ID, r.Cost)
			for _, ch := range r.Changes {
				fmt.Fprintf(&b, " %d:%q->%q", ch.Col, ch.From, ch.To)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func canonFact(f Fact, kb *KB) string {
	if f.IsType {
		return fmt.Sprintf("%s:type:%s", f.Subject, kb.LabelOf(f.Type))
	}
	if len(f.Path) > 0 {
		parts := make([]string, len(f.Path))
		for i, p := range f.Path {
			parts[i] = kb.LabelOf(p)
		}
		return fmt.Sprintf("%s:path:%s:%s", f.Subject, strings.Join(parts, "/"), f.Object)
	}
	return fmt.Sprintf("%s:%s:%s", f.Subject, kb.LabelOf(f.Prop), f.Object)
}

func TestAppendRequiresIncremental(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb}})
	if _, err := c.Clean(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([][]string{{"x", "y", "z"}}); err != ErrNotIncremental {
		t.Fatalf("Append without Incremental: err = %v, want ErrNotIncremental", err)
	}
	kb2, _ := figure1()
	c2 := NewCleaner(kb2, TrustingCrowd(), Options{Incremental: true})
	if _, err := c2.Append([][]string{{"x", "y", "z"}}); err != ErrNotIncremental {
		t.Fatalf("Append before Clean: err = %v, want ErrNotIncremental", err)
	}
}

func TestAppendMatchesBatch(t *testing.T) {
	for _, dedup := range []bool{true, false} {
		for _, split := range []int{1, 2} {
			name := fmt.Sprintf("dedup=%v/split=%d", dedup, split)
			t.Run(name, func(t *testing.T) {
				d := dedup
				kb, full := figure1()
				inc := NewCleaner(kb, TrustingCrowd(), Options{
					Incremental: true, Dedup: &d, FactOracle: fig1Oracle{kb},
				})
				base := NewTable(full.Name, full.Columns...)
				for _, r := range full.Rows[:split] {
					base.Append(r...)
				}
				if _, err := inc.Clean(base); err != nil {
					t.Fatal(err)
				}
				got, err := inc.Append(full.Rows[split:])
				if err != nil {
					t.Fatal(err)
				}

				kb2, full2 := figure1()
				batch := NewCleaner(kb2, TrustingCrowd(), Options{
					Incremental: true, Dedup: &d, FactOracle: fig1Oracle{kb2},
				})
				want, err := batch.Clean(full2)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := canonReport(got, inc.KB()), canonReport(want, batch.KB()); g != w {
					t.Fatalf("incremental != batch\n--- incremental\n%s--- batch\n%s", g, w)
				}
			})
		}
	}
}

func TestAppendChainMatchesBatch(t *testing.T) {
	kb, full := figure1()
	inc := NewCleaner(kb, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb}})
	base := NewTable(full.Name, full.Columns...)
	base.Append(full.Rows[0]...)
	if _, err := inc.Clean(base); err != nil {
		t.Fatal(err)
	}
	var got *Report
	var err error
	for _, r := range full.Rows[1:] {
		if got, err = inc.Append([][]string{r}); err != nil {
			t.Fatal(err)
		}
	}

	kb2, full2 := figure1()
	batch := NewCleaner(kb2, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb2}})
	want, err := batch.Clean(full2)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonReport(got, inc.KB()), canonReport(want, batch.KB()); g != w {
		t.Fatalf("chained incremental != batch\n--- incremental\n%s--- batch\n%s", g, w)
	}
}

// TestAppendCopiesCallerRows pins that a session owns its appended rows: a
// caller that reuses one row buffer across Appends (csv.Reader with
// ReuseRecord does) must not rewrite rows the session already holds. The
// second Append enriches the KB, which re-ranks the first appended row's
// repairs from the session's table.
func TestAppendCopiesCallerRows(t *testing.T) {
	kb, full := figure1()
	inc := NewCleaner(kb, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb}})
	base := NewTable(full.Name, full.Columns...)
	base.Append(full.Rows[0]...)
	if _, err := inc.Clean(base); err != nil {
		t.Fatal(err)
	}
	// Appended in the order Pirlo (erroneous), then Klate (enriching).
	appended := [][]string{full.Rows[2], full.Rows[1]}
	buf := make([]string, len(full.Columns))
	var got *Report
	var err error
	for _, r := range appended {
		copy(buf, r)
		if got, err = inc.Append([][]string{buf}); err != nil {
			t.Fatal(err)
		}
	}

	kb2, _ := figure1()
	merged := NewTable(full.Name, full.Columns...)
	merged.Append(full.Rows[0]...)
	for _, r := range appended {
		merged.Append(r...)
	}
	batch := NewCleaner(kb2, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb2}})
	want, err := batch.Clean(merged)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonReport(got, inc.KB()), canonReport(want, batch.KB()); g != w {
		t.Fatalf("appends from a reused buffer != batch\n--- incremental\n%s--- batch\n%s", g, w)
	}
}

// TestAppendExtendsRowUnits pins the provenance mapping an Append extends
// in place: after a Clean and two replayed Appends, every row's decision
// unit is its signature group in a fresh interned view of the merged table
// (the row itself with dedup off), and the journal covers every row.
func TestAppendExtendsRowUnits(t *testing.T) {
	for _, dedup := range []bool{true, false} {
		t.Run(fmt.Sprintf("dedup=%v", dedup), func(t *testing.T) {
			d := dedup
			kb, full := figure1()
			rec := NewProvenance()
			inc := NewCleaner(kb, TrustingCrowd(), Options{
				Incremental: true, Dedup: &d, FactOracle: fig1Oracle{kb}, Provenance: rec,
			})
			merged := NewTable(full.Name, full.Columns...)
			merged.Append(full.Rows[0]...)
			merged.Append(full.Rows[1]...)
			if _, err := inc.Clean(merged.Clone()); err != nil {
				t.Fatal(err)
			}
			// A new signature, then two repeats of earlier ones.
			for _, delta := range [][][]string{full.Rows[2:], {full.Rows[0], full.Rows[2]}} {
				if _, err := inc.Append(delta); err != nil {
					t.Fatal(err)
				}
				for _, r := range delta {
					merged.Append(r...)
				}
			}
			if d := rec.Drifts(); len(d) != 0 {
				t.Fatalf("append drifted (%+v): the in-place mapping went untested", d)
			}
			in := merged.Interned()
			for i := 0; i < merged.NumRows(); i++ {
				want := i
				if dedup {
					want = in.GroupOf(i)
				}
				if got := rec.Explain(i, 0).Unit; got != want {
					t.Errorf("row %d: unit %d, want %d", i, got, want)
				}
			}
			var journal strings.Builder
			if err := rec.WriteJournal(&journal); err != nil {
				t.Fatal(err)
			}
			var meta struct{ Rows int }
			first, _, _ := strings.Cut(journal.String(), "\n")
			if err := json.Unmarshal([]byte(first), &meta); err != nil {
				t.Fatal(err)
			}
			if meta.Rows != merged.NumRows() {
				t.Fatalf("journal meta covers %d rows, table has %d", meta.Rows, merged.NumRows())
			}
		})
	}
}

func TestAppendEmptyReturnsCurrentReport(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb}})
	rep, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Fatal("empty Append should return the current report unchanged")
	}
}

func TestAppendRejectsWrongArity(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb}})
	if _, err := c.Clean(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([][]string{{"only-two", "cells"}}); err == nil {
		t.Fatal("want arity error")
	}
}

// applyKBDeltaOracle cleans the full table from scratch against the pristine
// KB with adds already merged — the semantics ApplyKBDelta must reproduce —
// and checks that the delta was recorded as exactly one kb-delta drift.
func applyKBDeltaOracle(t *testing.T, adds []KBAddition) (string, string) {
	t.Helper()
	kb, tbl := figure1()
	rec := NewProvenance()
	inc := NewCleaner(kb, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb}, Provenance: rec})
	if _, err := inc.Clean(tbl); err != nil {
		t.Fatal(err)
	}
	got, err := inc.ApplyKBDelta(adds)
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.Drifts(); len(d) != 1 || d[0].Reason != "kb-delta" {
		t.Fatalf("drifts = %+v, want one kb-delta event", d)
	}

	kb2, tbl2 := figure1()
	for _, a := range adds {
		obj := rdf.IRI(a.Object)
		if a.Literal {
			obj = rdf.Lit(a.Object)
		}
		kb2.AddFact(rdf.IRI(a.Subject), rdf.IRI(a.Predicate), obj)
	}
	batch := NewCleaner(kb2, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb2}})
	want, err := batch.Clean(tbl2)
	if err != nil {
		t.Fatal(err)
	}
	return canonReport(got, inc.KB()), canonReport(want, batch.KB())
}

func TestApplyKBDeltaMatchesRebuild(t *testing.T) {
	// Every delta re-cleans from the merged snapshot, whatever its shape.
	cases := map[string][]KBAddition{
		// Label on an existing resource, far from every cell value: no
		// annotation or pattern decision changes, only repair rankings can.
		"unrelated-label": {{Subject: "y:Madrid", Predicate: rdf.IRILabel, Object: "Zzzqx", Literal: true}},
		// Label aliasing a cell value in a crowd-decided row.
		"affects-crowd-row": {{Subject: "y:Rome", Predicate: rdf.IRILabel, Object: "Pretoria", Literal: true}},
		// Non-label triple.
		"non-label": {{Subject: "y:SAfrica", Predicate: "hasCapital", Object: "y:Pretoria"}},
		// Label on a new subject: interns a term the session KB lacked.
		"new-subject": {{Subject: "y:France", Predicate: rdf.IRILabel, Object: "France", Literal: true}},
	}
	for name, adds := range cases {
		t.Run(name, func(t *testing.T) {
			got, want := applyKBDeltaOracle(t, adds)
			if got != want {
				t.Fatalf("ApplyKBDelta != rebuild-from-merged-KB\n--- incremental\n%s--- rebuild\n%s", got, want)
			}
		})
	}
}

func TestAppendAfterKBDelta(t *testing.T) {
	kb, full := figure1()
	inc := NewCleaner(kb, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb}})
	base := NewTable(full.Name, full.Columns...)
	for _, r := range full.Rows[:2] {
		base.Append(r...)
	}
	if _, err := inc.Clean(base); err != nil {
		t.Fatal(err)
	}
	adds := []KBAddition{{Subject: "y:Pirlo", Predicate: rdf.IRILabel, Object: "Andrea", Literal: true}}
	if _, err := inc.ApplyKBDelta(adds); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Append(full.Rows[2:])
	if err != nil {
		t.Fatal(err)
	}

	kb2, full2 := figure1()
	kb2.AddFact(rdf.IRI("y:Pirlo"), rdf.IRI(rdf.IRILabel), rdf.Lit("Andrea"))
	batch := NewCleaner(kb2, TrustingCrowd(), Options{Incremental: true, FactOracle: fig1Oracle{kb2}})
	want, err := batch.Clean(full2)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonReport(got, inc.KB()), canonReport(want, batch.KB()); g != w {
		t.Fatalf("append-after-delta != batch\n--- incremental\n%s--- batch\n%s", g, w)
	}
}

func TestAppendRecordsDriftProvenance(t *testing.T) {
	kb, full := figure1()
	rec := NewProvenance()
	inc := NewCleaner(kb, TrustingCrowd(), Options{
		Incremental: true, FactOracle: fig1Oracle{kb}, Provenance: rec,
	})
	base := NewTable(full.Name, full.Columns...)
	for _, r := range full.Rows[:2] {
		base.Append(r...)
	}
	if _, err := inc.Clean(base); err != nil {
		t.Fatal(err)
	}
	// A KB delta re-cleans; the drift must be recorded and survive the
	// re-run's recorder reset.
	adds := []KBAddition{{Subject: "y:SAfrica", Predicate: "hasCapital", Object: "y:Pretoria"}}
	if _, err := inc.ApplyKBDelta(adds); err != nil {
		t.Fatal(err)
	}
	drifts := rec.Drifts()
	if len(drifts) != 1 || drifts[0].Reason != "kb-delta" {
		t.Fatalf("drifts = %+v, want one kb-delta event", drifts)
	}
	audit := rec.BuildAudit()
	if len(audit.Drifts) != 1 {
		t.Fatalf("audit.Drifts = %+v", audit.Drifts)
	}
}

// TestAppendTimings pins that an Append runs the same instrumented driver as
// a Clean: a replayed Append's Timings carry the discover and annotate stages
// and the resolver counters, and with the pipeline detached the report has
// no Timings, as a Clean's has none.
func TestAppendTimings(t *testing.T) {
	kb, full := figure1()
	rec := NewProvenance()
	c := NewCleaner(kb, TrustingCrowd(), Options{
		Incremental: true, Telemetry: true, Provenance: rec, FactOracle: fig1Oracle{kb},
	})
	base := NewTable(full.Name, full.Columns...)
	for _, r := range full.Rows[:2] {
		base.Append(r...)
	}
	if _, err := c.Clean(base); err != nil {
		t.Fatal(err)
	}
	// The appended row is a new signature, so annotation resolves its cells.
	rep, err := c.Append(full.Rows[2:])
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.Drifts(); len(d) != 0 {
		t.Fatalf("append drifted (%+v): the replayed pass went untested", d)
	}
	if rep.Timings == nil {
		t.Fatal("Options.Telemetry set but the Append's Timings is nil")
	}
	stages := map[string]bool{}
	for _, st := range rep.Timings.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"discover", "annotate"} {
		if !stages[want] {
			t.Errorf("Append Timings lack the %s stage: %+v", want, rep.Timings.Stages)
		}
	}
	if rep.Timings.Counter("resolver-hits")+rep.Timings.Counter("resolver-misses") == 0 {
		t.Error("Append Timings count no resolver hits or misses")
	}

	kb2, full2 := figure1()
	c2 := NewCleaner(kb2, TrustingCrowd(), Options{
		Incremental: true, Pipeline: NewTelemetry(), FactOracle: fig1Oracle{kb2},
	})
	if rep, err := c2.Clean(base); err != nil || rep.Timings == nil {
		t.Fatalf("Clean with Options.Pipeline: err = %v, Timings = %v", err, rep.Timings)
	}
	c2.SetPipeline(nil)
	rep2, err := c2.Append(full2.Rows[2:])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Timings != nil {
		t.Fatalf("Append after SetPipeline(nil) carries Timings %+v", rep2.Timings)
	}
}
