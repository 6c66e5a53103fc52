package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"katara"
	"katara/internal/fanout"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// quickRun finishes immediately with a small deterministic report.
func quickRun(_ context.Context, _ *katara.KB, tbl *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
	return &katara.Report{QuestionsAsked: tbl.NumRows()}, nil
}

// mustNotRun fails the calling test if the manager ever executes it —
// recovered-terminal jobs must be served from the journal, never re-run.
func mustNotRun(t *testing.T) RunFunc {
	return func(context.Context, *katara.KB, *katara.Table, Params, *telemetry.Pipeline) (*katara.Report, error) {
		t.Error("recovered terminal job was re-run")
		return &katara.Report{}, nil
	}
}

// tinyTable returns a one-row table for journal-backed manager tests.
func tinyTable() *katara.Table {
	tbl := table.New("t", "A")
	tbl.Append("x")
	return tbl
}

// metricsLine fetches one non-comment exposition line from WriteMetrics.
func metricsLine(t *testing.T, m *Manager, needle string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return grepLine(buf.String(), needle)
}

// TestManagerRecoveryRequeue: a crash with one job running and two queued
// re-queues all three on the next boot, the re-run jobs complete, the ID
// sequence continues past the replayed IDs, and the requeue counter shows in
// /metrics.
func TestManagerRecoveryRequeue(t *testing.T) {
	dir := t.TempDir()
	j1, rep1 := openJournal(t, dir)

	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	blockRun := func(ctx context.Context, _ *katara.KB, _ *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		entered <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &katara.Report{}, nil
	}
	m1 := NewManager(Config{Run: blockRun, MaxConcurrent: 1, MaxQueue: 8, Journal: j1, Replay: rep1})
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m1.Submit(tinyTable(), Params{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	<-entered // ids[0] is running, the rest queued

	// Crash: the journal dies first (no further record reaches disk), then
	// the blocked job is released so the abandoned manager's goroutines can
	// exit. Its end records hit the closed journal and are lost — exactly
	// what a SIGKILL would do.
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	close(block)

	j2, rep2 := openJournal(t, dir)
	defer j2.Close()
	if len(rep2.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(rep2.Jobs))
	}
	if rep2.Jobs[0].Starts != 1 || rep2.Jobs[0].State != StateRunning {
		t.Fatalf("crashed running job replayed as %+v", rep2.Jobs[0])
	}
	m2 := NewManager(Config{Run: quickRun, MaxConcurrent: 2, MaxQueue: 8, Journal: j2, Replay: rep2})
	defer m2.Close()
	if rec := m2.Recovery(); rec.Requeued != 3 || rec.Terminal != 0 || rec.Poisoned != 0 {
		t.Fatalf("Recovery() = %+v, want 3 requeued", rec)
	}
	for _, id := range ids {
		if st := waitJob(t, m2, id); st.State != StateDone {
			t.Fatalf("re-queued job %s finished %s: %s", id, st.State, st.Error)
		}
	}
	id4, err := m2.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if id4 != "j4" {
		t.Fatalf("post-recovery ID = %s, want j4 (sequence must continue)", id4)
	}
	if line := metricsLine(t, m2, "katarad_jobs_requeued_total"); line != "katarad_jobs_requeued_total 3" {
		t.Fatalf("requeued metric = %q", line)
	}
}

// TestManagerRecoveredTerminal: a finished job's result document survives a
// restart byte-identically, and the job is never re-executed.
func TestManagerRecoveredTerminal(t *testing.T) {
	dir := t.TempDir()
	j1, rep1 := openJournal(t, dir)
	m1 := NewManager(Config{Run: quickRun, MaxConcurrent: 1, Journal: j1, Replay: rep1})
	id, err := m1.Submit(tinyTable(), Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, id)
	doc1, _, ok, err := m1.Result(id)
	if !ok || err != nil {
		t.Fatalf("Result = ok=%v err=%v", ok, err)
	}
	want, _ := json.Marshal(doc1)
	m1.Close()
	j1.Close()

	j2, rep2 := openJournal(t, dir)
	defer j2.Close()
	m2 := NewManager(Config{Run: mustNotRun(t), MaxConcurrent: 1, Journal: j2, Replay: rep2})
	defer m2.Close()
	if rec := m2.Recovery(); rec.Terminal != 1 || rec.Requeued != 0 {
		t.Fatalf("Recovery() = %+v, want 1 terminal", rec)
	}
	doc2, state, ok, err := m2.Result(id)
	if !ok || err != nil || state != StateDone {
		t.Fatalf("recovered Result = state=%s ok=%v err=%v", state, ok, err)
	}
	got, _ := json.Marshal(doc2)
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered result not byte-identical:\nbefore %s\nafter  %s", want, got)
	}
	// Give a would-be re-run a moment to trip mustNotRun before the test ends.
	time.Sleep(20 * time.Millisecond)
}

// TestManagerPoisonQuarantine: a job observed running across two crashed
// boots is quarantined as failed (poisoned) instead of re-queued, the
// quarantine itself is journaled, and the next boot replays it as terminal.
func TestManagerPoisonQuarantine(t *testing.T) {
	dir := t.TempDir()
	doc := sampleTable()

	j1, _ := openJournal(t, dir)
	if err := j1.RecordSubmit("j1", doc, Params{}); err != nil {
		t.Fatal(err)
	}
	if err := j1.RecordStart("j1"); err != nil {
		t.Fatal(err)
	}
	j1.Close() // crash #1 mid-run

	j2, _ := openJournal(t, dir)
	if err := j2.RecordStart("j1"); err != nil {
		t.Fatal(err)
	}
	j2.Close() // crash #2 mid-run

	j3, rep3 := openJournal(t, dir)
	m := NewManager(Config{Run: mustNotRun(t), MaxConcurrent: 1, Journal: j3, Replay: rep3})
	if rec := m.Recovery(); rec.Poisoned != 1 || rec.Requeued != 0 {
		t.Fatalf("Recovery() = %+v, want 1 poisoned", rec)
	}
	st, err := m.Status("j1")
	if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "poisoned") {
		t.Fatalf("quarantined job status = %+v (err %v)", st, err)
	}
	res, _, ok, _ := m.Result("j1")
	if !ok || res.Error != poisonedError {
		t.Fatalf("quarantined result = %+v ok=%v", res, ok)
	}
	if line := metricsLine(t, m, "katarad_jobs_poisoned_total"); line != "katarad_jobs_poisoned_total 1" {
		t.Fatalf("poisoned metric = %q", line)
	}
	m.Close()
	j3.Close()

	// The quarantine decision is durable: boot 4 sees it terminal.
	j4, rep4 := openJournal(t, dir)
	defer j4.Close()
	m4 := NewManager(Config{Run: mustNotRun(t), MaxConcurrent: 1, Journal: j4, Replay: rep4})
	defer m4.Close()
	if rec := m4.Recovery(); rec.Terminal != 1 || rec.Poisoned != 0 {
		t.Fatalf("boot-4 Recovery() = %+v, want 1 terminal", rec)
	}
}

// TestManagerPanicIsolation: a RunFunc panic becomes a failed job carrying
// the stack, bumps katarad_jobs_panics_total, and leaves concurrent jobs and
// the manager itself untouched.
func TestManagerPanicIsolation(t *testing.T) {
	boom := func(_ context.Context, _ *katara.KB, tbl *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		if tbl.Name == "boom" {
			panic("kaboom")
		}
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: boom, MaxConcurrent: 2, MaxQueue: 8})
	defer m.Close()

	bad := table.New("boom", "A")
	bad.Append("x")
	badID, err := m.Submit(bad, Params{})
	if err != nil {
		t.Fatal(err)
	}
	goodID, err := m.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}

	if st := waitJob(t, m, badID); st.State != StateFailed || !strings.Contains(st.Error, "panic: kaboom") {
		t.Fatalf("panicking job = %s %q, want failed with panic error", st.State, st.Error)
	}
	doc, _, _, _ := m.Result(badID)
	if doc.Stack == "" || !strings.Contains(doc.Stack, "goroutine") {
		t.Fatalf("panicking job's result carries no stack: %+v", doc)
	}
	if st := waitJob(t, m, goodID); st.State != StateDone {
		t.Fatalf("concurrent job = %s, want done (panic must not leak)", st.State)
	}
	if line := metricsLine(t, m, "katarad_jobs_panics_total"); line != "katarad_jobs_panics_total 1" {
		t.Fatalf("panics metric = %q", line)
	}
	// The worker that absorbed the panic is still alive.
	if id, err := m.Submit(tinyTable(), Params{}); err != nil {
		t.Fatal(err)
	} else if st := waitJob(t, m, id); st.State != StateDone {
		t.Fatalf("post-panic job = %s", st.State)
	}
}

// TestManagerShardPanicIsolation injects a panic inside a real annotation
// fan-out worker (via fanout.PanicHook) of a real pipeline run: exactly the
// job that hit the panic fails — with the worker goroutine's stack, not the
// re-raise site's — while the other jobs complete with byte-identical
// reports.
func TestManagerShardPanicIsolation(t *testing.T) {
	checkFanoutPanicIsolation(t, "annotation", Params{Workers: 2})
}

// TestManagerDiscoveryPanicIsolation is the same contract for the
// candidate-generation fan-out of a Workers job.
func TestManagerDiscoveryPanicIsolation(t *testing.T) {
	checkFanoutPanicIsolation(t, "discovery", Params{Workers: 2})
}

// checkFanoutPanicIsolation submits three identical jobs and panics the
// first worker of the given fan-out stage to run.
func checkFanoutPanicIsolation(t *testing.T, stage string, params Params) {
	kb, dirty := fixture(t, 40)
	var fired atomic.Bool
	fanout.PanicHook = func(s string, part int) {
		if s == stage && fired.CompareAndSwap(false, true) {
			panic(fmt.Sprintf("injected %s part %d panic", s, part))
		}
	}
	defer func() { fanout.PanicHook = nil }()

	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 8})
	defer m.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Submit(dirty, params)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var failed, done int
	var reports [][]byte
	for _, id := range ids {
		st := waitJob(t, m, id)
		doc, _, _, _ := m.Result(id)
		switch st.State {
		case StateFailed:
			failed++
			if !strings.Contains(st.Error, "panic in "+stage+" fan-out worker") {
				t.Fatalf("%s-panic job error = %q", stage, st.Error)
			}
			if !strings.Contains(doc.Stack, "fanout.runGuarded") {
				t.Fatalf("stack is not the fan-out worker goroutine's:\n%s", doc.Stack)
			}
		case StateDone:
			done++
			rep, _ := json.Marshal(doc.Report)
			reports = append(reports, rep)
		default:
			t.Fatalf("job %s = %s", id, st.State)
		}
	}
	if failed != 1 || done != 2 {
		t.Fatalf("failed=%d done=%d, want exactly the panicking job to fail", failed, done)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("surviving jobs' reports differ — a %s panic corrupted a concurrent job", stage)
	}
	if line := metricsLine(t, m, "katarad_jobs_panics_total"); line != "katarad_jobs_panics_total 1" {
		t.Fatalf("panics metric = %q", line)
	}
}

// TestManagerDrain: draining refuses new submissions (ErrDraining), lets the
// running job finish, leaves queued jobs unexecuted-but-journaled, and the
// next boot re-queues and runs them.
func TestManagerDrain(t *testing.T) {
	dir := t.TempDir()
	j1, rep1 := openJournal(t, dir)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	blockRun := func(ctx context.Context, _ *katara.KB, _ *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		entered <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &katara.Report{}, nil
	}
	m1 := NewManager(Config{Run: blockRun, MaxConcurrent: 1, MaxQueue: 8, Journal: j1, Replay: rep1})
	id1, err := m1.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	id2, err := m1.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}

	m1.StartDraining()
	if _, err := m1.Submit(tinyTable(), Params{}); err != ErrDraining {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if line := metricsLine(t, m1, "katarad_draining"); line != "katarad_draining 1" {
		t.Fatalf("draining gauge = %q", line)
	}
	close(block)
	if !m1.Drain(5 * time.Second) {
		t.Fatal("Drain timed out with an unblocked job")
	}
	if st := waitJob(t, m1, id1); st.State != StateDone {
		t.Fatalf("running job after drain = %s", st.State)
	}
	if st, _ := m1.Status(id2); st.State != StateQueued {
		t.Fatalf("queued job after drain = %s, want still queued (requeueable)", st.State)
	}
	j1.Close() // daemon exit; m1 deliberately not Closed (that would cancel id2)

	j2, rep2 := openJournal(t, dir)
	defer j2.Close()
	m2 := NewManager(Config{Run: quickRun, MaxConcurrent: 1, Journal: j2, Replay: rep2})
	defer m2.Close()
	if rec := m2.Recovery(); rec.Terminal != 1 || rec.Requeued != 1 {
		t.Fatalf("post-drain Recovery() = %+v, want 1 terminal + 1 requeued", rec)
	}
	if st := waitJob(t, m2, id2); st.State != StateDone {
		t.Fatalf("re-queued drained job = %s: %s", st.State, st.Error)
	}
}

// TestCancelQueuedRace hammers Cancel against queued jobs from many
// goroutines (exercised under -race by `make check`): every queued job ends
// exactly cancelled, concurrent Status/Result reads stay consistent, and the
// blocked running job is unaffected.
func TestCancelQueuedRace(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	run := func(ctx context.Context, _ *katara.KB, _ *katara.Table, _ Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		entered <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 32})
	defer m.Close()
	blocker, err := m.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		if ids[i], err = m.Submit(tinyTable(), Params{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		for k := 0; k < 3; k++ { // racing cancellers plus a racing reader
			wg.Add(1)
			go func(id string, k int) {
				defer wg.Done()
				if k == 2 {
					_, _ = m.Status(id)
					_, _, _, _ = m.Result(id)
					return
				}
				if err := m.Cancel(id); err != nil {
					t.Errorf("Cancel(%s): %v", id, err)
				}
			}(id, k)
		}
	}
	wg.Wait()
	for _, id := range ids {
		if st := waitJob(t, m, id); st.State != StateCancelled {
			t.Fatalf("raced job %s = %s, want cancelled", id, st.State)
		}
	}
	if line := metricsLine(t, m, "katarad_jobs_cancelled_total"); line != fmt.Sprintf("katarad_jobs_cancelled_total %d", n) {
		t.Fatalf("cancelled metric = %q, want %d (double-finalize under race?)", line, n)
	}
	close(block)
	if st := waitJob(t, m, blocker); st.State != StateDone {
		t.Fatalf("blocker = %s", st.State)
	}
}

// TestCancelAfterTerminalRace: cancelling an already-terminal job from many
// goroutines is a harmless no-op — the state and the pinned result document
// never change.
func TestCancelAfterTerminalRace(t *testing.T) {
	m := NewManager(Config{Run: quickRun, MaxConcurrent: 1})
	defer m.Close()
	id, err := m.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, id)
	before, _, _, _ := m.Result(id)
	want, _ := json.Marshal(before)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Cancel(id); err != nil {
				t.Errorf("Cancel terminal: %v", err)
			}
			doc, state, ok, err := m.Result(id)
			if !ok || err != nil || state != StateDone {
				t.Errorf("Result during cancel race = %s ok=%v err=%v", state, ok, err)
			}
			if got, _ := json.Marshal(doc); !bytes.Equal(want, got) {
				t.Errorf("result mutated by terminal cancel:\n%s\n%s", want, got)
			}
		}()
	}
	wg.Wait()
	if line := metricsLine(t, m, "katarad_jobs_cancelled_total"); line != "katarad_jobs_cancelled_total 0" {
		t.Fatalf("cancelled metric = %q, want 0", line)
	}
}
