// Command kload is the load driver for katarad: it hammers a running
// daemon with many concurrent cleaning jobs of the same table and verifies
// the service invariants under pressure:
//
//   - every job reaches a terminal state (queue-full rejections are
//     retried with backoff — backpressure, not failure);
//   - report documents are byte-identical within each table-size bucket
//     (any divergence between identical jobs is report corruption);
//   - /metrics stays promlint-clean on every scrape, and every cumulative
//     series (_total, _count, _sum, _bucket) is monotone non-decreasing
//     across scrapes.
//
// Usage:
//
//	kload -addr 127.0.0.1:8080 -in dirty.csv [-jobs 120] [-concurrency 100]
//	      [-workers 4] [-scrape 50ms]
//
// Jobs are spread over three table-size buckets (full, half and quarter
// row-prefixes of -in) and per-bucket p50/p95 job latency is reported, so
// one burst also shows how service latency scales with table size.
//
// Exit status 0 means the run sustained the load with all invariants
// intact; any violation prints the cause and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"katara/internal/jobs"
	"katara/internal/table"
	"katara/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("kload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "katarad address, host:port (required)")
		inPath      = fs.String("in", "", "CSV table to submit (required)")
		nJobs       = fs.Int("jobs", 120, "total jobs to submit")
		concurrency = fs.Int("concurrency", 100, "jobs in flight at once")
		workers     = fs.Int("workers", 4, "parallelism of each job (-1 = GOMAXPROCS)")
		scrape      = fs.Duration("scrape", 50*time.Millisecond, "interval between /metrics scrapes")
		timeout     = fs.Duration("timeout", 5*time.Minute, "overall run deadline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" || *inPath == "" {
		fmt.Fprintln(stderr, "kload: -addr and -in are required")
		fs.Usage()
		return 2
	}
	if err := (jobs.Params{Workers: *workers}).Validate(); err != nil {
		fmt.Fprintln(stderr, "kload:", err)
		return 2
	}
	if *nJobs < 1 || *concurrency < 1 {
		fmt.Fprintln(stderr, "kload: -jobs and -concurrency must be >= 1")
		return 2
	}

	f, err := os.Open(*inPath)
	if err != nil {
		fmt.Fprintln(stderr, "kload:", err)
		return 1
	}
	tbl, err := table.ReadCSV("load", f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "kload:", err)
		return 1
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}
	// Jobs are spread round-robin over table-size buckets — the full table
	// plus half and quarter row-prefixes — so one burst measures how job
	// latency scales with table size. Reports are byte-compared within each
	// bucket (different sizes legitimately produce different reports).
	buckets, err := makeBuckets(tbl, jobs.Params{Workers: *workers})
	if err != nil {
		fmt.Fprintln(stderr, "kload:", err)
		return 1
	}

	start := time.Now()
	deadline := start.Add(*timeout)
	var (
		inFlight, peak atomic.Int64
		rejections     atomic.Int64
		violations     atomic.Int64
		mu             sync.Mutex
	)
	fail := func(format string, args ...any) {
		violations.Add(1)
		fmt.Fprintf(stderr, "kload: FAIL: "+format+"\n", args...)
	}

	// Scraper: lint + monotonicity on every /metrics sample.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		prev := map[string]float64{}
		scrapes := 0
		for {
			select {
			case <-stopScrape:
				fmt.Fprintf(stdout, "kload: %d /metrics scrapes, all lint-clean and monotone\n", scrapes)
				return
			case <-time.After(*scrape):
			}
			resp, err := client.Get(base + "/metrics")
			if err != nil {
				fail("scrape: %v", err)
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != 200 {
				fail("scrape: status %d err %v", resp.StatusCode, rerr)
				return
			}
			if err := telemetry.LintExposition(bytes.NewReader(body)); err != nil {
				fail("scrape not lint-clean: %v", err)
				return
			}
			if err := telemetry.CheckMonotone(prev, body); err != nil {
				fail("%v", err)
				return
			}
			scrapes++
		}
	}()

	// Submit -jobs jobs, -concurrency at a time; each goroutine polls its
	// job to completion and byte-compares the report document.
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	for i := 0; i < *nJobs; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				if p := peak.Load(); cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			bk := buckets[i%len(buckets)]

			jobStart := time.Now()
			id, err := submitJob(client, base, bk.payload, deadline, &rejections)
			if err != nil {
				fail("job %d: %v", i, err)
				return
			}
			doc, err := awaitResult(client, base, id, deadline)
			if err != nil {
				fail("job %d (%s): %v", i, id, err)
				return
			}
			latency := time.Since(jobStart)
			mu.Lock()
			defer mu.Unlock()
			bk.latencies = append(bk.latencies, latency)
			if bk.reference == nil {
				bk.reference, bk.referenceFromID = doc, id
			} else if !bytes.Equal(bk.reference, doc) {
				fail("job %d (%s): report differs from %s — corruption", i, id, bk.referenceFromID)
			}
		}(i)
	}
	wg.Wait()
	close(stopScrape)
	<-scrapeDone

	fmt.Fprintf(stdout, "kload: %d jobs in %.2fs, peak in-flight %d, %d queue-full retries\n",
		*nJobs, time.Since(start).Seconds(), peak.Load(), rejections.Load())
	for _, bk := range buckets {
		if len(bk.latencies) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "kload: bucket %-7s (%d rows): %d jobs, latency p50=%s p95=%s\n",
			bk.name, bk.rows, len(bk.latencies),
			quantile(bk.latencies, 0.50).Round(time.Millisecond),
			quantile(bk.latencies, 0.95).Round(time.Millisecond))
	}
	if violations.Load() > 0 {
		fmt.Fprintf(stderr, "kload: FAIL (%d violations)\n", violations.Load())
		return 1
	}
	fmt.Fprintln(stdout, "kload: PASS — zero report corruption, metrics clean")
	return 0
}

// bucket is one table-size class of the burst: a row-prefix payload with its
// own reference report and latency samples.
type bucket struct {
	name            string
	rows            int
	payload         []byte
	latencies       []time.Duration
	reference       []byte
	referenceFromID string
}

// makeBuckets builds the full/half/quarter row-prefix payloads. Prefixes
// (not samples) keep each bucket deterministic; tiny tables may collapse to
// equal sizes, which is harmless — buckets are still compared independently.
func makeBuckets(tbl *table.Table, params jobs.Params) ([]*bucket, error) {
	sizes := []struct {
		name string
		div  int
	}{{"full", 1}, {"half", 2}, {"quarter", 4}}
	out := make([]*bucket, 0, len(sizes))
	for _, s := range sizes {
		n := len(tbl.Rows) / s.div
		if n < 1 {
			n = 1
		}
		payload, err := json.Marshal(jobs.SubmitRequest{
			Table:  jobs.TableDoc{Name: tbl.Name, Columns: tbl.Columns, Rows: tbl.Rows[:n]},
			Params: params,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, &bucket{name: s.name, rows: n, payload: payload})
	}
	return out, nil
}

// quantile returns the q-th latency quantile (nearest-rank on the sorted
// samples). The caller owns the slice; sorting in place is fine post-burst.
func quantile(d []time.Duration, q float64) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	idx := int(q * float64(len(d)-1))
	return d[idx]
}

// submitJob POSTs the job, retrying 429 (queue full) with backoff until
// deadline.
func submitJob(client *http.Client, base string, payload []byte, deadline time.Time, rejections *atomic.Int64) (string, error) {
	backoff := 2 * time.Millisecond
	for {
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			return "", err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return "", rerr
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var sub jobs.SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				return "", fmt.Errorf("submit response: %w", err)
			}
			return sub.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// 429 = queue full, 503 = draining for restart; both are
			// backpressure (the daemon says so with Retry-After), so retry
			// with backoff until the deadline.
			rejections.Add(1)
			if time.Now().After(deadline) {
				return "", fmt.Errorf("status %d past deadline", resp.StatusCode)
			}
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		default:
			return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
		}
	}
}

// awaitResult polls /jobs/{id}/result until 200 and returns the
// deterministic report sub-document bytes.
func awaitResult(client *http.Client, base, id string, deadline time.Time) ([]byte, error) {
	for {
		resp, err := client.Get(base + "/jobs/" + id + "/result")
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var res jobs.ResultDoc
			if err := json.Unmarshal(body, &res); err != nil {
				return nil, fmt.Errorf("result: %w", err)
			}
			if res.State != jobs.StateDone {
				return nil, fmt.Errorf("terminal state %s", res.State)
			}
			return json.Marshal(res.Report)
		case http.StatusConflict:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("not finished by deadline")
			}
			time.Sleep(5 * time.Millisecond)
		default:
			return nil, fmt.Errorf("result: status %d: %s", resp.StatusCode, body)
		}
	}
}
