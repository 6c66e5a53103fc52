package jobs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"katara"
	"katara/internal/telemetry"
)

func TestJobIDFromPath(t *testing.T) {
	for path, want := range map[string]string{
		"/jobs/j1":         "j1",
		"/jobs/j1/result":  "j1",
		"/jobs/j1/append":  "j1",
		"/jobs/":           "",
		"/jobs":            "",
		"/healthz":         "",
		"/jobs/j1/explain": "j1",
	} {
		if got := jobIDFromPath(path); got != want {
			t.Errorf("jobIDFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestLogRequestsNilLogger: a nil logger returns the handler unwrapped —
// the middleware must be free when logging is off.
func TestLogRequestsNilLogger(t *testing.T) {
	m := NewManager(Config{Run: func(context.Context, *katara.KB, *katara.Table, Params, *telemetry.Pipeline) (*katara.Report, error) {
		return &katara.Report{}, nil
	}})
	defer m.Close()
	h := http.NewServeMux()
	if got := m.LogRequests(nil, h); got != http.Handler(h) {
		t.Fatal("LogRequests(nil, h) wrapped the handler, want it returned as-is")
	}
}

// TestLogRequestsRecord: one structured record per request with method,
// path and status; when the path names a known job, the record joins in
// the job ID and its parallelism.
func TestLogRequestsRecord(t *testing.T) {
	run := func(context.Context, *katara.KB, *katara.Table, Params, *telemetry.Pipeline) (*katara.Report, error) {
		return &katara.Report{}, nil
	}
	m := NewManager(Config{Run: run, MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()

	tbl := katara.NewTable("t", "a")
	tbl.Append("x")
	id, err := m.Submit(tbl, Params{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, id)

	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(m.LogRequests(log, NewHandler(m)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	for _, want := range []string{
		"method=GET", "path=/jobs/" + id + "/result", "status=200",
		"job=" + id, "workers=3", "duration_ms=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("log record missing %q: %s", want, line)
		}
	}

	// An unknown job still logs, with the 404 status and no workers attr.
	buf.Reset()
	resp, err = http.Get(ts.URL + "/jobs/nope/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line = buf.String()
	if !strings.Contains(line, "status=404") || !strings.Contains(line, "job=nope") {
		t.Errorf("404 record wrong: %s", line)
	}
	if strings.Contains(line, "workers=") {
		t.Errorf("404 record has workers attr: %s", line)
	}
}
