package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"katara"
	"katara/internal/rdf"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/workload"
	"katara/internal/world"
)

// fixture builds a pristine KB and a dirty table for real cleaning runs.
func fixture(t testing.TB, rows int) (*katara.KB, *katara.Table) {
	t.Helper()
	const seed = 31
	w := world.New(seed, world.Config{
		Persons: 200, Players: 80, Clubs: 16, Universities: 60, Films: 30, Books: 30,
	})
	kb := workload.DBpediaLike(w, seed)
	spec := workload.PersonTable(w, seed, rows)
	dirty := spec.Table.Clone()
	rng := rand.New(rand.NewSource(seed))
	table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, rng)
	return kb.Store, dirty
}

func waitJob(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Wait(ctx, id); err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	st, err := m.Status(id)
	if err != nil {
		t.Fatalf("Status(%s): %v", id, err)
	}
	return st
}

// TestJobHappyPath: submit → wait → done, with a live progress document and
// a deterministic result — the same submission twice yields byte-identical
// report JSON.
func TestJobHappyPath(t *testing.T) {
	kb, dirty := fixture(t, 150)
	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 8})
	defer m.Close()

	id, err := m.Submit(dirty, Params{Workers: 4})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitJob(t, m, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if !st.Progress.Done || st.Progress.TuplesAnnotated != int64(dirty.NumRows()) {
		t.Fatalf("progress = %+v, want done with %d tuples", st.Progress, dirty.NumRows())
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatal("missing started/finished timestamps on a done job")
	}

	doc, state, done, err := m.Result(id)
	if err != nil || !done || state != StateDone || doc.Report == nil {
		t.Fatalf("Result = (%v, %s, %v, %v)", doc.Report != nil, state, done, err)
	}
	if len(doc.Report.Annotations) != dirty.NumRows() {
		t.Fatalf("report annotated %d/%d tuples", len(doc.Report.Annotations), dirty.NumRows())
	}

	// Determinism across jobs: identical submission, byte-identical report
	// document (the corruption signal kload watches for).
	id2, err := m.Submit(dirty, Params{Workers: 4})
	if err != nil {
		t.Fatalf("Submit #2: %v", err)
	}
	waitJob(t, m, id2)
	doc2, _, _, _ := m.Result(id2)
	b1, _ := json.Marshal(doc.Report)
	b2, _ := json.Marshal(doc2.Report)
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical submissions produced different report documents")
	}
}

// runClean is a RunFunc that runs the real pipeline: a cleaner built as the
// manager's default runner builds one, on a share of kb.
func runClean(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error) {
	return buildCleaner(kb, p, pipe).CleanContext(ctx, tbl)
}

// kbFingerprint renders what any write to a KB would change: its term count,
// label generation and triple stream by ID.
func kbFingerprint(kb *katara.KB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "terms=%d labelGen=%d\n", kb.NumTerms(), kb.LabelGen())
	kb.ForEachTriple(func(t rdf.Triple) { fmt.Fprintf(&b, "%d %d %d\n", t.S, t.P, t.O) })
	return b.String()
}

// TestJobsShareOneKBCopy: enriching jobs, run two at a time, start from
// copy-on-write shares of the manager's one re-interned KB. Config.KB is
// never written, and every result document equals the one a cleaner on a
// private kb.Clone() with the job's options produces — the per-job clone
// the shares replace. The re-interned KB's label memo, which every job
// reads, holds lookups afterwards, each equal to a fresh lookup on an
// unshared copy: a caller that mutated a shared result slice would show
// here. /metrics reports the memo: empty before the first job, its size
// after.
func TestJobsShareOneKBCopy(t *testing.T) {
	kb, dirty := fixture(t, 120)
	want := kbFingerprint(kb)
	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 16})
	defer m.Close()
	for _, name := range []string{"katarad_label_memo_entries", "katarad_label_memo_resets_total"} {
		if got := metricsLine(t, m, name); got != name+" 0" {
			t.Errorf("before the first job /metrics reads %q, want %s 0", got, name)
		}
	}

	params := []Params{{}, {Workers: 2}, {RepairK: 2}}
	var ids []string
	for i := 0; i < 2*len(params); i++ {
		id, err := m.Submit(dirty, params[i%len(params)])
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if st := waitJob(t, m, id); st.State != StateDone {
			t.Fatalf("job %s: state %s (err %q), want done", id, st.State, st.Error)
		}
		doc, _, _, err := m.Result(id)
		if err != nil {
			t.Fatalf("Result(%s): %v", id, err)
		}
		if doc.Report.NewFacts == 0 {
			t.Fatalf("job %s enriched nothing; the check needs jobs that write their KB", id)
		}
		opts := params[i%len(params)].Options()
		opts.Provenance = katara.NewProvenance()
		opts.Incremental = true
		ref, err := katara.NewCleaner(kb.Clone(), katara.TrustingCrowd(), opts).Clean(dirty)
		if err != nil {
			t.Fatalf("reference clean: %v", err)
		}
		got, _ := json.Marshal(doc)
		wantDoc, _ := json.Marshal(BuildResult(id, StateDone, ref))
		if !bytes.Equal(got, wantDoc) {
			t.Errorf("job %s: result document differs from a cleaner on its own kb.Clone()", id)
		}
	}
	if kbFingerprint(kb) != want {
		t.Error("Config.KB was written by the jobs")
	}
	fresh := kb.Clone()
	entries, _ := m.pristine.Load().LabelMemo(func(norm string, threshold float64, matches []rdf.LabelMatch) {
		if w := fresh.MatchLabelNorm(norm, threshold); !reflect.DeepEqual(matches, w) {
			t.Errorf("memoised MatchLabelNorm(%q, %v) = %v, an unshared copy gives %v", norm, threshold, matches, w)
		}
	})
	if entries == 0 {
		t.Error("the jobs left the shared KB's label memo empty")
	}
	if got, line := metricsLine(t, m, "katarad_label_memo_entries"), fmt.Sprintf("katarad_label_memo_entries %d", entries); got != line {
		t.Errorf("after the jobs /metrics reads %q, want %q", got, line)
	}
}

// TestJobCancelMidRun: cancelling a running job cancels its context; the
// real pipeline then degrades rather than aborting, and the job lands in
// StateCancelled with the degraded report retained.
func TestJobCancelMidRun(t *testing.T) {
	kb, dirty := fixture(t, 200)
	started := make(chan struct{})
	run := func(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error) {
		close(started)
		// Hold mid-run until the cancel lands, then drive the real pipeline
		// with the cancelled context — exactly what a cancel arriving
		// mid-annotation produces, without racing the (fast) real run.
		<-ctx.Done()
		return runClean(ctx, kb, tbl, p, pipe)
	}
	m := NewManager(Config{KB: kb, Run: run})
	defer m.Close()

	id, err := m.Submit(dirty, Params{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if err := m.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitJob(t, m, id)
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	doc, _, done, err := m.Result(id)
	if err != nil || !done {
		t.Fatalf("Result after cancel: done=%v err=%v", done, err)
	}
	if doc.Report == nil {
		t.Fatal("cancelled run dropped its degraded report")
	}
	if !doc.Report.Degraded.RepairsSkipped && doc.Report.Degraded.Tuples == 0 {
		t.Fatalf("cancelled run's report not degraded: %+v", doc.Report.Degraded)
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := m.Cancel(id); err != nil {
		t.Fatalf("Cancel on terminal job: %v", err)
	}
}

// TestJobCancelQueued: a job cancelled before a worker picks it up is
// finalized immediately and never runs.
func TestJobCancelQueued(t *testing.T) {
	block := make(chan struct{})
	ran := make(chan string, 8)
	run := func(ctx context.Context, _ *katara.KB, tbl *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		ran <- tbl.Name
		<-block
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()

	t1 := table.New("first", "A")
	t1.Append("x")
	t2 := table.New("second", "A")
	t2.Append("y")
	id1, err := m.Submit(t1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	<-ran // first job occupies the only worker
	id2, err := m.Submit(t2, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(id2); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	st := waitJob(t, m, id2)
	if st.State != StateCancelled {
		t.Fatalf("queued-cancel state = %s", st.State)
	}
	close(block)
	if st := waitJob(t, m, id1); st.State != StateDone {
		t.Fatalf("first job state = %s", st.State)
	}
	select {
	case name := <-ran:
		t.Fatalf("cancelled queued job %q still ran", name)
	default:
	}
	_, _, done, err := m.Result(id2)
	if err != nil || !done {
		t.Fatalf("cancelled queued job not terminal: done=%v err=%v", done, err)
	}
}

// TestJobDeadlineDegrades: a deadline far too short for the table makes the
// real pipeline return a *degraded* report — the job still completes as
// done, with the degradation flagged, rather than failing.
func TestJobDeadlineDegrades(t *testing.T) {
	kb, dirty := fixture(t, 2000)
	m := NewManager(Config{KB: kb})
	defer m.Close()

	id, err := m.Submit(dirty, Params{DeadlineMS: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitJob(t, m, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	doc, _, _, err := m.Result(id)
	if err != nil || doc.Report == nil {
		t.Fatalf("Result: %v", err)
	}
	if d := doc.Report.Degraded; !d.RepairsSkipped && d.Tuples == 0 && !d.PatternFallback {
		t.Fatalf("1ms deadline on %d rows produced an undegraded report", dirty.NumRows())
	}
}

// TestJobQueueFull: with one worker wedged and a one-slot queue, the next
// submission is rejected with ErrQueueFull — backpressure, not blocking.
func TestJobQueueFull(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	run := func(ctx context.Context, _ *katara.KB, _ *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		close(entered)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 1})
	defer m.Close()

	tbl := table.New("t", "A")
	tbl.Append("x")
	if _, err := m.Submit(tbl, Params{}); err != nil {
		t.Fatal(err)
	}
	<-entered // worker busy
	if _, err := m.Submit(tbl, Params{}); err != nil {
		t.Fatal(err) // fills the queue slot
	}
	if _, err := m.Submit(tbl, Params{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	close(block)
}

// TestSubmitValidation: bad parameters and bad tables are rejected before a
// job is created.
func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Run: func(context.Context, *katara.KB, *katara.Table, Params, *telemetry.Pipeline) (*katara.Report, error) {
		return &katara.Report{}, nil
	}})
	defer m.Close()
	tbl := table.New("t", "A")
	tbl.Append("x")

	var verr *ValidationError
	if _, err := m.Submit(tbl, Params{Budget: -1, Workers: -9}); !errors.As(err, &verr) {
		t.Fatalf("bad params err = %v", err)
	} else if len(verr.Problems) != 2 {
		t.Fatalf("want both problems reported, got %v", verr.Problems)
	}
	if _, err := m.Submit(table.New("empty", "A"), Params{}); !errors.As(err, &verr) {
		t.Fatalf("empty table err = %v", err)
	}
	if err := m.Cancel("j999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel unknown = %v", err)
	}
	if _, err := m.Status("j999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status unknown = %v", err)
	}
}

// TestManagerCloseRejectsAndDrains: Close cancels everything in flight,
// rejects new submissions, and returns only after the workers exit.
func TestManagerCloseRejectsAndDrains(t *testing.T) {
	run := func(ctx context.Context, _ *katara.KB, _ *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		<-ctx.Done() // runs until shutdown cancels it
		return nil, ctx.Err()
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 2, MaxQueue: 8})
	tbl := table.New("t", "A")
	tbl.Append("x")
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := m.Submit(tbl, Params{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m.Close()
	if _, err := m.Submit(tbl, Params{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit err = %v, want ErrClosed", err)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s left non-terminal after Close: %s", id, st.State)
		}
	}
}
