package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleRecorder fabricates a fully populated recorder covering every
// record type and every verdict class: a KB-full tuple, a crowd-validated
// tuple, an erroneous tuple with a repair, and a degraded Unknown tuple —
// over a 6-row table deduped to 4 decision units (rows 0/4 and 1/5 share
// signatures).
func sampleRecorder() *Recorder {
	r := NewRecorder()
	r.SetRowUnits(0, []int{0, 1, 2, 3, 0, 1}, true)

	r.RecordPattern("type(0)=city,type(1)=country,rel(0,1)=capitalOf", 2.931, true)
	r.RecordPattern("type(0)=city,type(1)=country", 2.114, false)
	r.RecordValidationStep("type(0)", 1.585, 3, "city", false)
	r.RecordValidationStep("rel(0,1)", 0.918, 2, "capitalOf", false)

	// Unit 0: fully matched in the KB.
	r.BeginTuple(0)
	r.RecordCheck(0, "node", "kb", []int{0}, `"Rome" is a city`, 0, true)
	r.RecordCheck(0, "edge", "kb", []int{0, 1}, `"Rome" capitalOf "Italy"`, 0, true)
	r.RecordVerdict(0, "validated-by-kb", false, true)

	// Unit 1: crowd confirmed the missing edge (3 votes, one retry).
	q1 := r.StartQuestion("bool", `Does "Paris" capitalOf "France"?`, []string{"yes", "no"})
	r.AddVote(q1, 0, 0, 1)
	r.AddVote(q1, 1, 0, 1)
	r.AddVote(q1, 2, 1, 1)
	r.FinishQuestion(q1, 0, 1, 0, 0, 0, "")
	r.BeginTuple(1)
	r.RecordCheck(1, "node", "kb", []int{0}, `"Paris" is a city`, 0, true)
	r.RecordCheck(1, "edge", "crowd", []int{0, 1}, `Does "Paris" capitalOf "France"?`, q1, true)
	r.RecordVerdict(1, "validated-by-kb-and-crowd", false, false)

	// Unit 2: the crowd rejected the edge — erroneous, repaired.
	q2 := r.StartQuestion("bool", `Does "Rome" capitalOf "France"?`, []string{"yes", "no"})
	r.AddVote(q2, 0, 1, 1)
	r.AddVote(q2, 1, 1, 1)
	r.AddVote(q2, 2, 1, 1)
	r.FinishQuestion(q2, 1, 0, 0, 0, 0, "")
	r.BeginTuple(2)
	r.RecordCheck(2, "edge", "crowd", []int{0, 1}, `Does "Rome" capitalOf "France"?`, q2, false)
	r.RecordVerdict(2, "erroneous", false, false)
	r.RecordRepair(2, 5, []Candidate{
		{Graph: 3, Cost: 1, Changes: []Change{{Col: 1, From: "France", To: "Italy"}}},
		{Graph: 9, Cost: 2, Changes: []Change{{Col: 0, From: "Rome", To: "Paris"}, {Col: 1, From: "France", To: "France2"}}},
	})

	// Unit 3: budget ran out mid-tuple — degraded Unknown.
	q3 := r.StartQuestion("bool", `Is "Atlantis" a city?`, []string{"yes", "no"})
	r.FinishQuestion(q3, -1, 2, 1, 1, 0, "budget exhausted")
	r.BeginTuple(3)
	r.RecordCheck(3, "node", "degraded", []int{0}, `Is "Atlantis" a city?`, q3, false)
	r.RecordVerdict(3, "unknown", true, false)
	return r
}

// TestJournalDeterminism: serialising the same evidence twice yields
// byte-identical JSONL, the journal lints clean, and the bytes match the
// pinned golden file (regenerate with UPDATE_GOLDEN=1 go test).
func TestJournalDeterminism(t *testing.T) {
	rec := sampleRecorder()
	var a, b bytes.Buffer
	if err := rec.WriteJournal(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJournal(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serialisations of the same evidence differ")
	}
	if err := LintJournal(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("journal does not lint: %v", err)
	}

	golden := filepath.Join("testdata", "journal.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(a.Bytes(), want) {
		t.Fatalf("journal differs from golden file\n--- got ---\n%s\n--- want ---\n%s", a.Bytes(), want)
	}
}

// TestLintJournalRejects: each schema violation is caught with an error
// naming the offending line.
func TestLintJournalRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteJournal(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	cases := []struct {
		name    string
		journal string
		want    string
	}{
		{"empty", "", "no meta record"},
		{"not JSON", "meta\n", "invalid JSON"},
		{"first line not meta", lines[1] + "\n", "first record must be meta"},
		{"wrong version", `{"type":"meta","version":99}` + "\n", "version must be"},
		{"duplicate meta", lines[0] + "\n" + lines[0] + "\n", "duplicate meta"},
		{"unknown type", lines[0] + "\n" + `{"type":"wat"}` + "\n", "unknown record type"},
		{"question ids not increasing", lines[0] + "\n" +
			`{"type":"question","id":2,"kind":"bool","prompt":"p","votes":[],"outcome":0}` + "\n" +
			`{"type":"question","id":1,"kind":"bool","prompt":"p","votes":[],"outcome":0}` + "\n",
			"not strictly increasing"},
		{"dangling qid", lines[0] + "\n" +
			`{"type":"tuple","unit":0,"rows":[0],"verdict":"erroneous","checks":[{"kind":"edge","source":"crowd","cols":[0],"desc":"d","qid":7,"confirmed":false}]}` + "\n",
			"unknown question id 7"},
		{"pattern missing score", lines[0] + "\n" + `{"type":"pattern","key":"k"}` + "\n", "pattern"},
	}
	for _, tc := range cases {
		err := LintJournal(strings.NewReader(tc.journal))
		if err == nil {
			t.Errorf("%s: lint accepted a broken journal", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestExplainVerdictClasses: the per-cell projection carries the right
// evidence for every verdict class, including the degraded Unknown path.
func TestExplainVerdictClasses(t *testing.T) {
	rec := sampleRecorder()

	kbFull := rec.Explain(0, 0)
	if kbFull.Verdict != "validated-by-kb" || !kbFull.KBFull {
		t.Fatalf("unit 0: verdict %q kbFull %v", kbFull.Verdict, kbFull.KBFull)
	}
	if len(kbFull.Questions) != 0 {
		t.Fatalf("unit 0 references %d questions, want 0", len(kbFull.Questions))
	}

	crowd := rec.Explain(1, 1)
	if crowd.Verdict != "validated-by-kb-and-crowd" {
		t.Fatalf("unit 1: verdict %q", crowd.Verdict)
	}
	if len(crowd.Questions) != 1 || len(crowd.Questions[0].Votes) != 3 {
		t.Fatalf("unit 1: questions %+v", crowd.Questions)
	}
	if crowd.Questions[0].Retries != 1 {
		t.Fatalf("unit 1: retries %d, want 1", crowd.Questions[0].Retries)
	}

	errn := rec.Explain(2, 1)
	if errn.Verdict != "erroneous" || errn.Repair == nil {
		t.Fatalf("unit 2: verdict %q repair %v", errn.Verdict, errn.Repair)
	}
	if errn.Change == nil || errn.Change.To != "Italy" {
		t.Fatalf("unit 2: applied change %+v, want -> Italy", errn.Change)
	}

	unk := rec.Explain(3, 0)
	if unk.Verdict != "unknown" || !unk.Degraded {
		t.Fatalf("unit 3: verdict %q degraded %v", unk.Verdict, unk.Degraded)
	}
	if len(unk.Questions) != 1 || unk.Questions[0].Error == "" {
		t.Fatalf("unit 3: degraded question not surfaced: %+v", unk.Questions)
	}

	// Row 4 duplicates row 0's signature: same decision unit, fan-out listed.
	dup := rec.Explain(4, 0)
	if dup.Unit != 0 || len(dup.Rows) != 2 {
		t.Fatalf("row 4: unit %d rows %v, want unit 0 shared by [0 4]", dup.Unit, dup.Rows)
	}

	// A never-recorded row explains to an explicitly empty chain.
	empty := rec.Explain(99, 0)
	if !empty.Empty() {
		t.Fatalf("row 99 should have no evidence: %+v", empty)
	}
	var txt bytes.Buffer
	empty.WriteText(&txt)
	if !strings.Contains(txt.String(), "no recorded evidence") {
		t.Fatalf("text rendering of an empty chain: %q", txt.String())
	}
}

// TestChildMergeDeterminism: shard children merged in shard order serialise
// identically to the same evidence recorded directly — the journal cannot
// tell a sharded run from a serial one.
func TestChildMergeDeterminism(t *testing.T) {
	direct := NewRecorder()
	direct.SetRowUnits(0, []int{0, 1, 2, 3}, false)
	sharded := NewRecorder()
	sharded.SetRowUnits(0, []int{0, 1, 2, 3}, false)

	record := func(r *Recorder, unit int) {
		r.BeginTuple(unit)
		r.RecordCheck(unit, "node", "kb", []int{0}, "d", 0, true)
		r.RecordVerdict(unit, "erroneous", false, false)
		r.RecordRepair(unit, unit+1, []Candidate{{Graph: unit, Cost: 1, Changes: []Change{{Col: 0, From: "a", To: "b"}}}})
	}
	for u := 0; u < 4; u++ {
		record(direct, u)
	}
	// Two shards owning units {0,1} and {2,3}, recorded out of order within
	// the run but merged in shard order.
	c0, c1 := sharded.Child(), sharded.Child()
	record(c1, 3)
	record(c0, 1)
	record(c1, 2)
	record(c0, 0)
	sharded.Merge(c0)
	sharded.Merge(c1)

	var a, b bytes.Buffer
	if err := direct.WriteJournal(&a); err != nil {
		t.Fatal(err)
	}
	if err := sharded.WriteJournal(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sharded journal differs from direct journal\n--- direct ---\n%s\n--- sharded ---\n%s", a.Bytes(), b.Bytes())
	}
}

// TestBeginTupleDedup: a settled verdict is kept for later duplicates, but
// a degraded record is cleared and re-recorded.
func TestBeginTupleDedup(t *testing.T) {
	r := NewRecorder()
	if !r.BeginTuple(0) {
		t.Fatal("first BeginTuple should record")
	}
	r.RecordVerdict(0, "validated-by-kb", false, true)
	if r.BeginTuple(0) {
		t.Fatal("settled unit should not re-record")
	}

	if !r.BeginTuple(1) {
		t.Fatal("first BeginTuple should record")
	}
	r.RecordCheck(1, "node", "degraded", []int{0}, "d", 0, false)
	r.RecordVerdict(1, "unknown", true, false)
	if !r.BeginTuple(1) {
		t.Fatal("degraded unit should be re-recordable")
	}
	r.RecordVerdict(1, "validated-by-kb-and-crowd", false, false)
	if e := r.Explain(1, 0); e.Verdict != "validated-by-kb-and-crowd" || len(e.Checks) != 0 {
		t.Fatalf("degraded record not cleared: %+v", e)
	}
}

// TestBuildAudit: the run-level aggregation fans units out to rows and
// classifies repair confidence by cost margin.
func TestBuildAudit(t *testing.T) {
	rec := sampleRecorder()
	a := rec.BuildAudit()
	if a.Rows != 6 {
		t.Fatalf("audit rows = %d, want 6", a.Rows)
	}
	// Units 0 and 1 each cover two duplicate rows.
	if got := a.CellsByClass["validated-by-kb"]; got != 2 {
		t.Fatalf("validated-by-kb rows = %d, want 2", got)
	}
	if got := a.CellsByClass["validated-by-kb-and-crowd"]; got != 2 {
		t.Fatalf("validated-by-kb-and-crowd rows = %d, want 2", got)
	}
	if a.Questions != 3 {
		t.Fatalf("questions = %d, want 3", a.Questions)
	}
	if a.RepairedRows != 1 {
		t.Fatalf("repaired rows = %d, want 1", a.RepairedRows)
	}
}
