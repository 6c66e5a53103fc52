// Tests for the decision-provenance HTTP surface: GET /jobs/{id}/explain
// across every verdict class (including degraded Unknown), the live
// /jobs/{id}/progress document with its SSE variant, and the /version +
// katarad_build_info build identity.

package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"katara"
	"katara/internal/provenance"
	"katara/internal/telemetry"
)

// lineageTable is a six-row table matching lineageRecorder's row→unit map.
func lineageTable() *katara.Table {
	return &katara.Table{
		Name:    "capitals",
		Columns: []string{"city", "country"},
		Rows: [][]string{
			{"Rome", "Italy"},
			{"Paris", "France"},
			{"Rome", "France"},
			{"Atlantis", "Nowhere"},
			{"Rome", "Italy"},
			{"Paris", "France"},
		},
	}
}

// lineageRecorder fabricates a recorder covering all four verdict classes:
// unit 0 KB-validated (rows 0 and 4 duplicate), unit 1 crowd-confirmed
// (rows 1 and 5), unit 2 erroneous and repaired, unit 3 degraded Unknown.
func lineageRecorder() *provenance.Recorder {
	r := provenance.NewRecorder()
	r.SetRowUnits(0, []int{0, 1, 2, 3, 0, 1}, true)

	r.RecordPattern("type(0)=city,type(1)=country,rel(0,1)=capitalOf", 2.931, true)
	r.RecordValidationStep("type(0)", 1.585, 3, "city", false)

	r.BeginTuple(0)
	r.RecordCheck(0, "node", "kb", []int{0}, `"Rome" is a city`, 0, true)
	r.RecordCheck(0, "edge", "kb", []int{0, 1}, `"Rome" capitalOf "Italy"`, 0, true)
	r.RecordVerdict(0, "validated-by-kb", false, true)

	q1 := r.StartQuestion("bool", `Does "Paris" capitalOf "France"?`, []string{"yes", "no"})
	r.AddVote(q1, 0, 0, 1)
	r.AddVote(q1, 1, 0, 1)
	r.FinishQuestion(q1, 0, 0, 0, 0, 0, "")
	r.BeginTuple(1)
	r.RecordCheck(1, "edge", "crowd", []int{0, 1}, `Does "Paris" capitalOf "France"?`, q1, true)
	r.RecordVerdict(1, "validated-by-kb-and-crowd", false, false)

	q2 := r.StartQuestion("bool", `Does "Rome" capitalOf "France"?`, []string{"yes", "no"})
	r.AddVote(q2, 0, 1, 1)
	r.AddVote(q2, 1, 1, 1)
	r.FinishQuestion(q2, 1, 0, 0, 0, 0, "")
	r.BeginTuple(2)
	r.RecordCheck(2, "edge", "crowd", []int{0, 1}, `Does "Rome" capitalOf "France"?`, q2, false)
	r.RecordVerdict(2, "erroneous", false, false)
	r.RecordRepair(2, 5, []provenance.Candidate{
		{Graph: 3, Cost: 1, Changes: []provenance.Change{{Col: 1, From: "France", To: "Italy"}}},
	})

	q3 := r.StartQuestion("bool", `Is "Atlantis" a city?`, []string{"yes", "no"})
	r.FinishQuestion(q3, -1, 2, 1, 1, 0, "budget exhausted")
	r.BeginTuple(3)
	r.RecordCheck(3, "node", "degraded", []int{0}, `Is "Atlantis" a city?`, q3, false)
	r.RecordVerdict(3, "unknown", true, false)
	return r
}

// TestHTTPExplain drives GET /jobs/{id}/explain over a scripted run whose
// report carries a fabricated recorder, checking one cell of each verdict
// class plus every error status the endpoint documents.
func TestHTTPExplain(t *testing.T) {
	rec := lineageRecorder()
	release := make(chan struct{})
	run := func(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &katara.Report{Provenance: rec}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	id, err := m.Submit(lineageTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}

	// Not terminal yet → 409.
	code, body := do(t, ts, "GET", "/jobs/"+id+"/explain?row=0&col=0", nil)
	if code != http.StatusConflict {
		t.Fatalf("explain before completion = %d %s, want 409", code, body)
	}
	close(release)
	waitJob(t, m, id)

	// Malformed coordinates → 400; unknown job → 404.
	for _, q := range []string{"?row=banana&col=0", "?row=0", "?row=-1&col=0", ""} {
		if code, body = do(t, ts, "GET", "/jobs/"+id+"/explain"+q, nil); code != http.StatusBadRequest {
			t.Fatalf("explain%s = %d %s, want 400", q, code, body)
		}
	}
	if code, _ = do(t, ts, "GET", "/jobs/nope/explain?row=0&col=0", nil); code != http.StatusNotFound {
		t.Fatalf("explain unknown job = %d, want 404", code)
	}

	get := func(row, col string) katara.Explanation {
		t.Helper()
		code, body := do(t, ts, "GET", "/jobs/"+id+"/explain?row="+row+"&col="+col, nil)
		if code != http.StatusOK {
			t.Fatalf("explain row=%s col=%s = %d %s", row, col, code, body)
		}
		var e katara.Explanation
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("explain body %s: %v", body, err)
		}
		return e
	}

	// KB-validated cell; row 4 shares unit 0 with row 0.
	e := get("0", "0")
	if e.Verdict != "validated-by-kb" || !e.KBFull || len(e.Checks) != 2 {
		t.Fatalf("kb cell = %+v", e)
	}
	if e4 := get("4", "0"); e4.Unit != e.Unit || len(e4.Rows) != 2 {
		t.Fatalf("dup row unit=%d rows=%v, want unit %d with 2 rows", e4.Unit, e4.Rows, e.Unit)
	}

	// Crowd-confirmed cell carries its question with the votes.
	e = get("1", "1")
	if e.Verdict != "validated-by-kb-and-crowd" || len(e.Questions) != 1 || len(e.Questions[0].Votes) != 2 {
		t.Fatalf("crowd cell = %+v", e)
	}

	// Erroneous cell: repair candidates plus the applied change.
	e = get("2", "1")
	if e.Verdict != "erroneous" || e.Repair == nil || len(e.Repair.Candidates) != 1 {
		t.Fatalf("erroneous cell = %+v", e)
	}
	if e.Change == nil || e.Change.From != "France" || e.Change.To != "Italy" {
		t.Fatalf("erroneous cell change = %+v, want France→Italy", e.Change)
	}

	// Degraded Unknown: the failed question and its exhaustion counters.
	e = get("3", "0")
	if e.Verdict != "unknown" || !e.Degraded || len(e.Questions) != 1 {
		t.Fatalf("degraded cell = %+v", e)
	}
	if q := e.Questions[0]; q.Retries != 2 || q.Timeouts != 1 || q.Error != "budget exhausted" {
		t.Fatalf("degraded question = %+v", q)
	}

	// A row the recorder never saw explains as an empty chain, not an error.
	if e = get("99", "0"); e.Verdict != "" || e.Repair != nil || len(e.Checks) != 0 {
		t.Fatalf("unseen row = %+v, want empty chain", e)
	}
}

// TestHTTPExplainNoProvenance: a terminal job whose report carries no
// recorder (here: a scripted run; in production a journal-recovered job)
// answers 410 Gone.
func TestHTTPExplainNoProvenance(t *testing.T) {
	run := func(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error) {
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	id, err := m.Submit(lineageTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, id)
	code, body := do(t, ts, "GET", "/jobs/"+id+"/explain?row=0&col=0", nil)
	if code != http.StatusGone {
		t.Fatalf("explain without recorder = %d %s, want 410", code, body)
	}
}

// TestHTTPProgressSSE watches a deliberately slow job over the SSE variant
// of /jobs/{id}/progress: events stream while it runs, the final event has
// done=true, and the server then closes the stream.
func TestHTTPProgressSSE(t *testing.T) {
	old := sseInterval
	sseInterval = 2 * time.Millisecond
	defer func() { sseInterval = old }()

	started := make(chan struct{})
	release := make(chan struct{})
	run := func(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error) {
		pipe.Add(telemetry.TuplesAnnotated, 3)
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	id, err := m.Submit(lineageTable(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Plain GET (no Accept header) answers one JSON document.
	code, body := do(t, ts, "GET", "/jobs/"+id+"/progress", nil)
	if code != http.StatusOK {
		t.Fatalf("progress = %d %s", code, body)
	}
	var doc ProgressDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("progress body %s: %v", body, err)
	}
	if doc.ID != id || doc.State != StateRunning || doc.Progress.TuplesAnnotated != 3 {
		t.Fatalf("progress doc = %+v", doc)
	}
	if code, _ = do(t, ts, "GET", "/jobs/nope/progress", nil); code != http.StatusNotFound {
		t.Fatalf("progress unknown job = %d, want 404", code)
	}

	// The streamed watch.
	req, err := http.NewRequest("GET", ts.URL+"/jobs/"+id+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	var events []ProgressDoc
	released := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev ProgressDoc
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE event %q: %v", line, err)
		}
		events = append(events, ev)
		// Let a couple of running events through, then finish the job and
		// expect the stream to deliver the terminal event and close.
		if len(events) >= 2 && !released {
			released = true
			close(release)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("SSE delivered %d events, want at least 3", len(events))
	}
	for _, ev := range events[:2] {
		if ev.State != StateRunning || ev.Progress.Done || ev.Progress.TuplesAnnotated != 3 {
			t.Fatalf("running event = %+v", ev)
		}
	}
	last := events[len(events)-1]
	if !last.Progress.Done || last.State != StateDone {
		t.Fatalf("final event = %+v, want done", last)
	}
}

// TestHTTPVersion: /version answers the build document and /metrics carries
// the matching katarad_build_info gauge, lint-clean.
func TestHTTPVersion(t *testing.T) {
	m := NewManager(Config{Run: func(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error) {
		return &katara.Report{}, nil
	}, MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	code, body := do(t, ts, "GET", "/version", nil)
	if code != http.StatusOK {
		t.Fatalf("/version = %d %s", code, body)
	}
	var v VersionInfo
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("/version body %s: %v", body, err)
	}
	if v.GoVersion == "" || v.Module == "" || v.Version == "" {
		t.Fatalf("/version = %+v, want populated build metadata", v)
	}

	code, body = do(t, ts, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(string(body), "katarad_build_info{") {
		t.Fatalf("/metrics missing katarad_build_info:\n%s", body)
	}
	if err := telemetry.LintExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
}
