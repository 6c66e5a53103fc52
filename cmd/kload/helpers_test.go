package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"katara/internal/jobs"
	"katara/internal/table"
)

// TestMakeBuckets: full/half/quarter row-prefix payloads, never below one
// row, each decoding back to the same columns.
func TestMakeBuckets(t *testing.T) {
	tbl := table.New("t", "a", "b")
	for i := 0; i < 8; i++ {
		tbl.Append("x", "y")
	}
	bks, err := makeBuckets(tbl, jobs.Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(bks) != 3 {
		t.Fatalf("got %d buckets, want 3", len(bks))
	}
	for i, want := range []int{8, 4, 2} {
		if bks[i].rows != want {
			t.Fatalf("bucket %s rows = %d, want %d", bks[i].name, bks[i].rows, want)
		}
		var req jobs.SubmitRequest
		if err := json.Unmarshal(bks[i].payload, &req); err != nil {
			t.Fatalf("bucket %s payload: %v", bks[i].name, err)
		}
		if len(req.Table.Rows) != want || req.Params.Workers != 2 {
			t.Fatalf("bucket %s payload rows=%d workers=%d", bks[i].name, len(req.Table.Rows), req.Params.Workers)
		}
	}

	// A one-row table must not produce empty buckets.
	tiny := table.New("tiny", "a")
	tiny.Append("x")
	bks, err = makeBuckets(tiny, jobs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range bks {
		if bk.rows != 1 {
			t.Fatalf("tiny bucket %s rows = %d, want 1", bk.name, bk.rows)
		}
	}
}

// TestQuantile: nearest-rank on the sorted samples, independent of input
// order.
func TestQuantile(t *testing.T) {
	d := []time.Duration{40, 10, 30, 20} // deliberately unsorted
	if got := quantile(d, 0); got != 10 {
		t.Fatalf("p0 = %d, want 10", got)
	}
	if got := quantile(d, 0.5); got != 20 {
		t.Fatalf("p50 = %d, want 20", got)
	}
	if got := quantile(d, 1); got != 40 {
		t.Fatalf("p100 = %d, want 40", got)
	}
}

// TestSubmitJobBackpressure: 429 retries with the rejection counter bumped;
// the eventual 202 returns the ID.
func TestSubmitJobBackpressure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(jobs.SubmitResponse{ID: "j3"})
	}))
	defer srv.Close()
	var rejections atomic.Int64
	id, err := submitJob(srv.Client(), srv.URL, []byte(`{}`), time.Now().Add(5*time.Second), &rejections)
	if err != nil {
		t.Fatalf("submitJob: %v", err)
	}
	if id != "j3" || rejections.Load() != 1 {
		t.Fatalf("id=%q rejections=%d, want j3/1", id, rejections.Load())
	}
}

// TestSubmitJobHardError: a 400 is terminal, not backpressure.
func TestSubmitJobHardError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad table", http.StatusBadRequest)
	}))
	defer srv.Close()
	var rejections atomic.Int64
	if _, err := submitJob(srv.Client(), srv.URL, []byte(`{}`), time.Now().Add(time.Second), &rejections); err == nil {
		t.Fatal("submitJob on 400 succeeded, want error")
	}
}

// TestAwaitResultPolls: 409 while running, then a done document whose
// report bytes come back.
func TestAwaitResultPolls(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusConflict)
			return
		}
		_ = json.NewEncoder(w).Encode(jobs.ResultDoc{
			ID: "j1", State: jobs.StateDone,
			Report: &jobs.ReportDoc{QuestionsAsked: 5},
		})
	}))
	defer srv.Close()
	rep, err := awaitResult(srv.Client(), srv.URL, "j1", time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatalf("awaitResult: %v", err)
	}
	if len(rep) == 0 {
		t.Fatal("empty report bytes")
	}
}

// TestAwaitResultFailedJob: a terminal failed state is an error, and a 404
// is terminal too.
func TestAwaitResultFailedJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(jobs.ResultDoc{ID: "j1", State: jobs.StateFailed, Error: "boom"})
	}))
	defer srv.Close()
	if _, err := awaitResult(srv.Client(), srv.URL, "j1", time.Now().Add(time.Second)); err == nil {
		t.Fatal("awaitResult on failed job succeeded, want error")
	}

	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unknown", http.StatusNotFound)
	}))
	defer gone.Close()
	if _, err := awaitResult(gone.Client(), gone.URL, "j1", time.Now().Add(time.Second)); err == nil {
		t.Fatal("awaitResult on 404 succeeded, want error")
	}
}
