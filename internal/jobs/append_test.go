package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"katara"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// splitFixture builds the real-cleaning fixture and splits its rows into a
// root table and a delta, so append tests can compare chain results against
// one batch run over the merged table.
func splitFixture(t *testing.T, rows, split int) (*katara.KB, *katara.Table, *katara.Table, [][]string) {
	t.Helper()
	kb, dirty := fixture(t, rows)
	root := table.New(dirty.Name, dirty.Columns...)
	for _, r := range dirty.Rows[:split] {
		root.Append(r...)
	}
	return kb, dirty, root, dirty.Rows[split:]
}

// reportBytes marshals a terminal job's report document for byte-exact
// comparison.
func reportBytes(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	doc, state, ok, err := m.Result(id)
	if err != nil || !ok || state != StateDone {
		t.Fatalf("Result(%s) = state=%s ok=%v err=%v", id, state, ok, err)
	}
	b, err := json.Marshal(doc.Report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestManagerAppendChain: a root job plus an append increment yields the
// cumulative report over every row of the chain, byte-identical to one batch
// submission of the merged table; the status document links the increment to
// its parent and the daemon metrics count the append and the retained session.
func TestManagerAppendChain(t *testing.T) {
	kb, dirty, root, delta := splitFixture(t, 60, 40)
	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 8})
	defer m.Close()

	rootID, err := m.Submit(root, Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, m, rootID); st.State != StateDone {
		t.Fatalf("root = %s: %s", st.State, st.Error)
	}
	incID, err := m.Append(rootID, delta)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	st := waitJob(t, m, incID)
	if st.State != StateDone {
		t.Fatalf("increment = %s: %s", st.State, st.Error)
	}
	if st.Parent != rootID {
		t.Fatalf("increment Parent = %q, want %q", st.Parent, rootID)
	}
	doc, _, _, err := m.Result(incID)
	if err != nil || doc.Report == nil {
		t.Fatalf("Result: %v", err)
	}
	if len(doc.Report.Annotations) != dirty.NumRows() {
		t.Fatalf("increment annotated %d rows, want the cumulative %d", len(doc.Report.Annotations), dirty.NumRows())
	}

	batchID, err := m.Submit(dirty, Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, batchID)
	if inc, batch := reportBytes(t, m, incID), reportBytes(t, m, batchID); !bytes.Equal(inc, batch) {
		t.Fatalf("append chain != one batch run\n--- chain\n%s\n--- batch\n%s", inc, batch)
	}

	if line := metricsLine(t, m, "katarad_jobs_appended_total"); line != "katarad_jobs_appended_total 1" {
		t.Fatalf("appended metric = %q", line)
	}
	if line := metricsLine(t, m, "katarad_sessions_retained"); line == "(series missing)" {
		t.Fatalf("sessions gauge missing")
	}
}

// TestManagerAppendSlowPathMatchesFast: evicting the retained session forces
// the chain re-execution path; a two-deep chain run entirely on the slow path
// must produce the same bytes as the same chain run on the fast path.
func TestManagerAppendSlowPathMatchesFast(t *testing.T) {
	kb, dirty, root, delta := splitFixture(t, 60, 30)
	d1, d2 := delta[:15], delta[15:]
	_ = dirty
	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 16})
	defer m.Close()

	runChain := func(evict bool) []byte {
		rootID, err := m.Submit(root, Params{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, m, rootID)
		if evict {
			m.dropRetained(rootID)
		}
		id1, err := m.Append(rootID, d1)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, m, id1)
		if evict {
			m.dropRetained(id1)
		}
		id2, err := m.Append(id1, d2)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, m, id2); st.State != StateDone {
			t.Fatalf("chain tip = %s: %s", st.State, st.Error)
		}
		return reportBytes(t, m, id2)
	}

	fast := runChain(false)
	slow := runChain(true)
	if !bytes.Equal(fast, slow) {
		t.Fatalf("slow path != fast path\n--- fast\n%s\n--- slow\n%s", fast, slow)
	}
}

// TestManagerEvictsLeastRecentSession: the manager retains at most
// maxSessions chain tips, so retaining one more evicts the least recently
// retained one. An append to the evicted tip re-executes its chain and
// returns the bytes an append on the fast path returns.
func TestManagerEvictsLeastRecentSession(t *testing.T) {
	kb, _, root, delta := splitFixture(t, 60, 30)
	m := NewManager(Config{KB: kb, MaxConcurrent: 1, MaxQueue: 16})
	defer m.Close()

	var roots []string
	for i := 0; i <= maxSessions; i++ {
		id, err := m.Submit(root, Params{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, m, id); st.State != StateDone {
			t.Fatalf("root %d = %s: %s", i, st.State, st.Error)
		}
		roots = append(roots, id)
	}
	m.mu.Lock()
	order := append([]string(nil), m.retainedOrder...)
	_, oldest := m.retained[roots[0]]
	m.mu.Unlock()
	if oldest || !reflect.DeepEqual(order, roots[1:]) {
		t.Fatalf("retained %v after %d roots, want the last %d: %v", order, len(roots), maxSessions, roots[1:])
	}

	// The fast append runs first: each append retains its own tip, and the
	// slow one's would evict roots[1].
	appendTo := func(parent string) string {
		id, err := m.Append(parent, delta)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, m, id); st.State != StateDone {
			t.Fatalf("append to %s = %s: %s", parent, st.State, st.Error)
		}
		return id
	}
	fastID := appendTo(roots[1])
	slowID := appendTo(roots[0])
	if slow, fast := reportBytes(t, m, slowID), reportBytes(t, m, fastID); !bytes.Equal(slow, fast) {
		t.Fatalf("append to an evicted tip != append on the fast path\n--- slow\n%s\n--- fast\n%s", slow, fast)
	}
}

// TestManagerAppendConflicts: appends against missing, unfinished or
// already-extended parents are rejected with the typed errors the HTTP layer
// maps to 404/409, and malformed deltas fail validation before a job exists.
func TestManagerAppendConflicts(t *testing.T) {
	kb, _ := fixture(t, 10)
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
	m := NewManager(Config{KB: kb, Run: blockRun, MaxConcurrent: 1, MaxQueue: 8})
	defer m.Close()

	if _, err := m.Append("j999", [][]string{{"x"}}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown parent err = %v", err)
	}
	id, err := m.Submit(tinyTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // parent is running
	if _, err := m.Append(id, [][]string{{"x"}}); !errors.Is(err, ErrParentNotDone) {
		t.Fatalf("running parent err = %v, want ErrParentNotDone", err)
	}
	close(block)
	waitJob(t, m, id)

	var verr *ValidationError
	if _, err := m.Append(id, nil); !errors.As(err, &verr) {
		t.Fatalf("empty delta err = %v", err)
	}
	if _, err := m.Append(id, [][]string{{"too", "wide"}}); !errors.As(err, &verr) {
		t.Fatalf("bad arity err = %v", err)
	}
	// Rejected appends must not mark the parent extended.
	inc, err := m.Append(id, [][]string{{"y"}})
	if err != nil {
		t.Fatalf("append after rejections: %v", err)
	}
	if _, err := m.Append(id, [][]string{{"z"}}); !errors.Is(err, ErrParentExtended) {
		t.Fatalf("second append err = %v, want ErrParentExtended", err)
	}
	waitJob(t, m, inc)
}

// TestManagerAppendCrashReplay: an append increment that was journaled but
// crashed mid-run is re-queued on the next boot and re-executed via chain
// re-execution from the root submission — producing a result document
// byte-identical to what the pre-crash fast path would have served. A chain
// that finished before the crash replays terminal with identical bytes.
func TestManagerAppendCrashReplay(t *testing.T) {
	kb, _, root, delta := splitFixture(t, 60, 40)
	dir := t.TempDir()

	// Boot 1: run the chain to completion on the fast path; its result is the
	// reference every replay must reproduce.
	j1, rep1 := openJournal(t, dir)
	m1 := NewManager(Config{KB: kb, MaxConcurrent: 1, Journal: j1, Replay: rep1})
	rootID, err := m1.Submit(root, Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, rootID)
	incID, err := m1.Append(rootID, delta)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, m1, incID); st.State != StateDone {
		t.Fatalf("increment = %s: %s", st.State, st.Error)
	}
	want := reportBytes(t, m1, incID)
	rootDoc, _, _, err := m1.Result(rootID)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	j1.Close()

	// Boot 2: both jobs replay terminal; the increment's result document is
	// byte-identical and nothing re-runs.
	j2, rep2 := openJournal(t, dir)
	m2 := NewManager(Config{KB: kb, MaxConcurrent: 1, Journal: j2, Replay: rep2})
	if rec := m2.Recovery(); rec.Terminal != 2 || rec.Requeued != 0 {
		t.Fatalf("boot-2 Recovery() = %+v, want 2 terminal", rec)
	}
	if got := reportBytes(t, m2, incID); !bytes.Equal(want, got) {
		t.Fatalf("replayed increment result not byte-identical:\nbefore %s\nafter  %s", want, got)
	}
	st, err := m2.Status(incID)
	if err != nil || st.Parent != rootID {
		t.Fatalf("replayed increment Parent = %q (err %v), want %q", st.Parent, err, rootID)
	}
	m2.Close()
	j2.Close()

	// Crash mid-append: a journal holding the finished root plus an append
	// record with a start but no end — exactly what a SIGKILL between accepting
	// the increment and finishing it leaves behind.
	dir2 := t.TempDir()
	jc, _ := openJournal(t, dir2)
	if err := jc.RecordSubmit(rootID, TableDoc{Name: root.Name, Columns: root.Columns, Rows: root.Rows}, Params{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := jc.RecordEnd(rootDoc); err != nil {
		t.Fatal(err)
	}
	if err := jc.RecordAppend(incID, rootID, TableDoc{Name: root.Name, Columns: root.Columns, Rows: delta}); err != nil {
		t.Fatal(err)
	}
	if err := jc.RecordStart(incID); err != nil {
		t.Fatal(err)
	}
	jc.Close() // crash

	j3, rep3 := openJournal(t, dir2)
	defer j3.Close()
	m3 := NewManager(Config{KB: kb, MaxConcurrent: 1, Journal: j3, Replay: rep3})
	defer m3.Close()
	if rec := m3.Recovery(); rec.Terminal != 1 || rec.Requeued != 1 {
		t.Fatalf("crash Recovery() = %+v, want 1 terminal + 1 requeued", rec)
	}
	if st := waitJob(t, m3, incID); st.State != StateDone {
		t.Fatalf("re-run increment = %s: %s", st.State, st.Error)
	}
	if got := reportBytes(t, m3, incID); !bytes.Equal(want, got) {
		t.Fatalf("crash-replayed increment diverged from the pre-crash fast path:\nwant %s\ngot  %s", want, got)
	}
}

// TestHTTPAppend drives the append endpoint over real HTTP: 202 with the new
// job ID, 404 for unknown parents, 409 once the parent is extended, 400 on a
// malformed delta.
func TestHTTPAppend(t *testing.T) {
	kb, dirty, root, delta := splitFixture(t, 40, 25)
	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 8})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	code, body := do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(root), Params: Params{Workers: 2}})
	if code != 202 {
		t.Fatalf("submit = %d %s", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, sub.ID)

	if code, body = do(t, ts, "POST", "/jobs/nope/append", AppendRequest{Rows: delta}); code != 404 {
		t.Fatalf("unknown append = %d %s", code, body)
	}
	if code, body = do(t, ts, "POST", "/jobs/"+sub.ID+"/append", AppendRequest{Rows: [][]string{{"short"}}}); code != 400 {
		t.Fatalf("bad-arity append = %d %s", code, body)
	}
	code, body = do(t, ts, "POST", "/jobs/"+sub.ID+"/append", AppendRequest{Rows: delta})
	if code != 202 {
		t.Fatalf("append = %d %s", code, body)
	}
	var inc SubmitResponse
	if err := json.Unmarshal(body, &inc); err != nil || inc.ID == "" {
		t.Fatalf("append body %s: %v", body, err)
	}
	if code, body = do(t, ts, "POST", "/jobs/"+sub.ID+"/append", AppendRequest{Rows: delta}); code != 409 {
		t.Fatalf("append to extended parent = %d %s, want 409", code, body)
	}
	if st := waitJob(t, m, inc.ID); st.State != StateDone {
		t.Fatalf("increment = %s: %s", st.State, st.Error)
	}
	code, body = do(t, ts, "GET", "/jobs/"+inc.ID+"/result", nil)
	if code != 200 {
		t.Fatalf("increment result = %d %s", code, body)
	}
	var res ResultDoc
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Annotations) != dirty.NumRows() {
		t.Fatalf("increment served %d annotations, want the cumulative %d",
			len(res.Report.Annotations), dirty.NumRows())
	}
}
