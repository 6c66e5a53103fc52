package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"katara"
	"katara/internal/table"
	"katara/internal/telemetry"
)

func tableDoc(t *katara.Table) TableDoc {
	return TableDoc{Name: t.Name, Columns: t.Columns, Rows: t.Rows}
}

func do(t *testing.T, ts *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp.StatusCode, data
}

// TestHTTPLifecycle drives the whole submit → poll → result → cancel
// surface over real HTTP against real cleaning runs.
func TestHTTPLifecycle(t *testing.T) {
	kb, dirty := fixture(t, 150)
	m := NewManager(Config{KB: kb, MaxConcurrent: 2, MaxQueue: 16})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	code, body := do(t, ts, "GET", "/healthz", nil)
	if code != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Submit.
	code, body = do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(dirty), Params: Params{Workers: 2}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}

	// Result before completion is 409 or the job is already done — poll.
	deadline := time.Now().Add(30 * time.Second)
	var result ResultDoc
	for {
		code, body = do(t, ts, "GET", "/jobs/"+sub.ID+"/result", nil)
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &result); err != nil {
				t.Fatalf("result body: %v", err)
			}
			break
		}
		if code != http.StatusConflict {
			t.Fatalf("result = %d %s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if result.State != StateDone || result.Report == nil {
		t.Fatalf("result = %+v", result)
	}
	if len(result.Report.Annotations) != dirty.NumRows() {
		t.Fatalf("result annotated %d/%d rows", len(result.Report.Annotations), dirty.NumRows())
	}

	// Status document.
	code, body = do(t, ts, "GET", "/jobs/"+sub.ID, nil)
	if code != 200 {
		t.Fatalf("status = %d %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.State != StateDone {
		t.Fatalf("status body %s: %v", body, err)
	}

	// Listing includes the job.
	code, body = do(t, ts, "GET", "/jobs", nil)
	if code != 200 || !strings.Contains(string(body), sub.ID) {
		t.Fatalf("list = %d %s", code, body)
	}

	// Unknown job → 404; bad params → 400 naming the problem; bad arity →
	// 400; cancel of a done job → 200 no-op.
	if code, _ = do(t, ts, "GET", "/jobs/nope", nil); code != 404 {
		t.Fatalf("unknown status = %d", code)
	}
	if code, _ = do(t, ts, "GET", "/jobs/nope/result", nil); code != 404 {
		t.Fatalf("unknown result = %d", code)
	}
	code, body = do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(dirty), Params: Params{Budget: -5}})
	if code != 400 || !strings.Contains(string(body), "budget") {
		t.Fatalf("bad-params submit = %d %s", code, body)
	}
	bad := TableDoc{Name: "bad", Columns: []string{"A", "B"}, Rows: [][]string{{"only-one"}}}
	if code, body = do(t, ts, "POST", "/jobs", SubmitRequest{Table: bad}); code != 400 {
		t.Fatalf("bad-arity submit = %d %s", code, body)
	}
	if code, _ = do(t, ts, "POST", "/jobs/"+sub.ID+"/cancel", nil); code != 200 {
		t.Fatalf("cancel done job = %d", code)
	}

	// /metrics is lint-clean and carries both the pipeline and the daemon
	// families.
	code, body = do(t, ts, "GET", "/metrics", nil)
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if err := telemetry.LintExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{"katara_tuples_annotated_total", "katarad_jobs_submitted_total", "katarad_jobs_running"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestHTTPQueueFull: the handler surfaces ErrQueueFull as 429.
func TestHTTPQueueFull(t *testing.T) {
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
	defer close(block)
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	tbl := table.New("t", "A")
	tbl.Append("x")
	if code, body := do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(tbl)}); code != 202 {
		t.Fatalf("submit 1 = %d %s", code, body)
	}
	<-entered
	if code, body := do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(tbl)}); code != 202 {
		t.Fatalf("submit 2 = %d %s", code, body)
	}
	code, body := do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(tbl)})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit 3 = %d %s, want 429", code, body)
	}
}

// TestHTTPConcurrentSubmissions hammers the handler from many goroutines
// (run under -race in CI): every job completes, identical submissions
// produce byte-identical report documents, and /metrics scrapes taken
// while jobs run stay lint-clean and monotone.
func TestHTTPConcurrentSubmissions(t *testing.T) {
	kb, dirty := fixture(t, 60)
	m := NewManager(Config{KB: kb, MaxConcurrent: 4, MaxQueue: 256})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() { // concurrent scraper asserting lint-cleanliness + monotonicity
		prev := map[string]float64{}
		for {
			select {
			case <-stop:
				scrapeErr <- nil
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				scrapeErr <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := telemetry.LintExposition(bytes.NewReader(body)); err != nil {
				scrapeErr <- fmt.Errorf("scrape lint: %w", err)
				return
			}
			if err := telemetry.CheckMonotone(prev, body); err != nil {
				scrapeErr <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := do(t, ts, "POST", "/jobs", SubmitRequest{Table: tableDoc(dirty), Params: Params{Workers: 2}})
			if code != 202 {
				t.Errorf("submit %d = %d %s", i, code, body)
				return
			}
			var sub SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Errorf("submit %d body: %v", i, err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()

	var reference []byte
	for i, id := range ids {
		if id == "" {
			continue
		}
		if err := m.Wait(context.Background(), id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		code, body := do(t, ts, "GET", "/jobs/"+id+"/result", nil)
		if code != 200 {
			t.Fatalf("result %s = %d %s", id, code, body)
		}
		var res ResultDoc
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		doc, _ := json.Marshal(res.Report)
		if reference == nil {
			reference = doc
		} else if !bytes.Equal(reference, doc) {
			t.Fatalf("job %d (%s): report differs from job 0 — corruption under concurrency", i, id)
		}
	}
	close(stop)
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	// Final scrape: counters reflect all n jobs exactly once.
	code, body := do(t, ts, "GET", "/metrics", nil)
	if code != 200 {
		t.Fatalf("final metrics = %d", code)
	}
	wantAnnotated := int64(n * dirty.NumRows())
	if !strings.Contains(string(body), fmt.Sprintf("katara_tuples_annotated_total %d", wantAnnotated)) {
		t.Fatalf("final metrics: katara_tuples_annotated_total != %d (double-count or drop):\n%s",
			wantAnnotated, grepLine(string(body), "katara_tuples_annotated_total"))
	}
	if !strings.Contains(string(body), fmt.Sprintf("katarad_jobs_completed_total %d", n)) {
		t.Fatalf("final metrics: completed != %d:\n%s", n, grepLine(string(body), "katarad_jobs_completed_total"))
	}
}

func grepLine(body, needle string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, needle) && !strings.HasPrefix(line, "#") {
			return line
		}
	}
	return "(series missing)"
}
