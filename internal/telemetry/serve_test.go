package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, string(body)
}

func TestServerEndpoints(t *testing.T) {
	p := New()
	p.Add(CrowdQuestions, 4)
	p.Add(TuplesAnnotated, 10)
	p.EndStage(StageDiscover, p.StartStage(StageDiscover))
	p.hists[HistCrowdQuestion].Record(2 * time.Millisecond)

	s := NewServer(p)
	s.SetTotalTuples(325)
	s.SetQuestionBudget(20)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, body = get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if err := LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics body fails lint: %v\n%s", err, body)
	}
	if !strings.Contains(body, "katara_crowd_questions_total 4") {
		t.Fatalf("/metrics missing live counter:\n%s", body)
	}

	resp, body = get(t, ts, "/progress")
	if resp.StatusCode != 200 {
		t.Fatalf("/progress status = %d", resp.StatusCode)
	}
	var prog Progress
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog.TuplesAnnotated != 10 || prog.TuplesTotal != 325 {
		t.Fatalf("/progress tuples = %d/%d, want 10/325", prog.TuplesAnnotated, prog.TuplesTotal)
	}
	if prog.CrowdQuestions != 4 || prog.BudgetQuestionsRemaining != 16 {
		t.Fatalf("/progress questions = %d, remaining = %d, want 4 and 16",
			prog.CrowdQuestions, prog.BudgetQuestionsRemaining)
	}
	if prog.Done {
		t.Fatal("/progress reports done before MarkDone")
	}

	// Mid-run: an active stage shows up, budget clamps at zero when overspent.
	stageStart := p.StartStage(StageAnnotate)
	p.Add(CrowdQuestions, 100)
	s.MarkDone()
	_, body = get(t, ts, "/progress")
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if prog.Stage != "annotate" {
		t.Fatalf("/progress stage = %q, want annotate", prog.Stage)
	}
	if prog.BudgetQuestionsRemaining != 0 {
		t.Fatalf("overspent budget remaining = %d, want 0", prog.BudgetQuestionsRemaining)
	}
	if !prog.Done {
		t.Fatal("/progress should report done after MarkDone")
	}
	p.EndStage(StageAnnotate, stageStart)

	resp, _ = get(t, ts, "/debug/pprof/")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}

	resp, _ = get(t, ts, "/no-such-page")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}

	resp, body = get(t, ts, "/")
	if resp.StatusCode != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", resp.StatusCode, body)
	}
}

func TestServerNilPipeline(t *testing.T) {
	s := NewServer(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if err := LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("nil-pipeline /metrics fails lint: %v\n%s", err, body)
	}

	resp, body = get(t, ts, "/progress")
	if resp.StatusCode != 200 {
		t.Fatalf("/progress status = %d", resp.StatusCode)
	}
	var prog Progress
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog.Stage != "" || prog.CrowdQuestions != 0 || prog.BudgetQuestionsRemaining != -1 {
		t.Fatalf("nil-pipeline progress = %+v", prog)
	}
}

func TestServerStartAndClose(t *testing.T) {
	s := NewServer(New())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseDrainsInFlightScrape is the regression test for the shutdown
// bugfix: Close used http.Server.Close, which severed connections mid-
// response, so a scraper could get a truncated /metrics body. Close now
// drains gracefully: a request already in flight when Close starts must
// complete with a full, lint-clean exposition.
func TestCloseDrainsInFlightScrape(t *testing.T) {
	p := New()
	p.Add(CrowdQuestions, 7)
	s := NewServer(p)

	entered := make(chan struct{})
	release := make(chan struct{})
	var gated atomic.Bool
	s.requestGate = func() {
		// Gate only the first request; Shutdown's own internals issue none,
		// but keep the hook idempotent anyway.
		if gated.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	type scrape struct {
		status int
		body   string
		err    error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- scrape{status: resp.StatusCode, body: string(body), err: err}
	}()

	<-entered // the scrape is in flight
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Close must not return while the request is still being served.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) before the in-flight scrape completed", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // let the handler run; shutdown should now complete
	sc := <-got
	if sc.err != nil {
		t.Fatalf("in-flight scrape failed during shutdown: %v", sc.err)
	}
	if sc.status != 200 {
		t.Fatalf("in-flight scrape status = %d, want 200", sc.status)
	}
	if err := LintExposition(strings.NewReader(sc.body)); err != nil {
		t.Fatalf("in-flight scrape body truncated or malformed: %v", err)
	}
	if !strings.Contains(sc.body, "katara_crowd_questions_total 7") {
		t.Fatalf("in-flight scrape body incomplete:\n%s", sc.body)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseSeversStuckRequestAfterGrace: a request that never finishes must
// not wedge Close forever — after ShutdownGrace the server falls back to a
// hard close.
func TestCloseSeversStuckRequestAfterGrace(t *testing.T) {
	s := NewServer(New())
	s.ShutdownGrace = 30 * time.Millisecond

	entered := make(chan struct{})
	var gated atomic.Bool
	s.requestGate = func() {
		if gated.CompareAndSwap(false, true) {
			close(entered)
			select {} // never returns: a pathologically stuck handler
		}
	}

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/metrics")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close after grace: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a stuck request; grace fallback did not fire")
	}
}

func TestServerNilSafety(t *testing.T) {
	var s *Server
	s.SetTotalTuples(1)
	s.SetQuestionBudget(1)
	s.MarkDone()
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if _, err := s.Start(":0"); err == nil {
		t.Fatal("nil Start should error")
	}
	// Never-started server closes cleanly too.
	if err := NewServer(nil).Close(); err != nil {
		t.Fatalf("never-started Close: %v", err)
	}
}
