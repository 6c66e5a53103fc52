package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"katara"
	"katara/internal/jobs"
	"katara/internal/rdf"
)

// server is an in-process katarad: a job manager with an fsynced journal
// behind the HTTP handler, listening on 127.0.0.1.
type server struct {
	m      *jobs.Manager
	j      *jobs.Journal
	hs     *http.Server
	dir    string
	base   string
	served chan struct{}
}

// maxConcurrent is the server's job concurrency: one job per CPU of the
// two-CPU machines the benchmark targets.
const maxConcurrent = 2

func startServer(kb *rdf.Store, tmpDir string) (*server, error) {
	dir, err := os.MkdirTemp(tmpDir, "katara-bench-journal-")
	if err != nil {
		return nil, err
	}
	j, replay, err := jobs.OpenJournal(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	m := jobs.NewManager(jobs.Config{KB: kb, MaxConcurrent: maxConcurrent, Journal: j, Replay: replay})
	s := &server{m: m, j: j, hs: &http.Server{Handler: jobs.NewHandler(m)}, dir: dir,
		base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, drains the job
// manager and removes the journal.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.m.Close()
	err = errors.Join(err, s.j.Close(), os.RemoveAll(s.dir))
	return err
}

// sentJob is one submission of the open loop, from the dispatcher to the
// poller.
type sentJob struct {
	table          int
	id             string
	due, sent, ack time.Time
	err            error
}

// runService drives service-webtables: an open loop of evenly spaced sends
// at cfg.jobRate jobs per second, each a POST /jobs of one WebTables table
// (round-robin) to an in-process job server, polled to completion. One
// dispatcher goroutine sends on schedule; one poller goroutine polls; they
// share at most two connections. Latency runs from each job's scheduled send
// time to the receipt of its result, so a stalled sender shows up in it.
// Every result must equal its table's reference, computed in-process with
// the job server's own options.
func runService(cfg config) (_ *outcome, err error) {
	o := newOutcome(cfg)
	var in *webInputs
	var srv *server
	setup, err := setupSeconds(cfg.setupReps, func() error {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
		}
		in = genWeb(deriveSeeds(cfg.seed), cfg.webTables)
		var err error
		srv, err = startServer(in.kb.Store, cfg.tmpDir)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := srv.close(); cerr != nil && err == nil {
			err = fmt.Errorf("stop the job server: %w", cerr)
		}
	}()
	o.values["setup_s"] = setup
	n := len(in.specs)
	fmt.Fprintf(cfg.log, "service-webtables: %d tables, %.1f jobs/s offered, set-up %.3fs\n", n, cfg.jobRate, setup)

	// References: each table cleaned in-process exactly as the job manager
	// runs a job (a KB clone, provenance, an incremental session).
	refDocs := make([][]byte, n)
	refs := make([]*katara.Report, n)
	var refTimes []time.Duration
	var timings []*katara.Timings
	payloads := make([][]byte, n)
	var questions int
	var f1 float64
	for i, spec := range in.specs {
		start := time.Now()
		kb := in.kb.Clone()
		rep, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), jobOptions(cfg.trace)).Clean(spec.Table)
		if err != nil {
			return nil, fmt.Errorf("reference clean of %s: %w", spec.Table.Name, err)
		}
		refTimes = append(refTimes, time.Since(start))
		refs[i] = rep
		timings = append(timings, rep.Timings)
		if refDocs[i], err = json.Marshal(jobs.BuildResult("", jobs.StateDone, rep).Report); err != nil {
			return nil, err
		}
		questions += rep.QuestionsAsked
		f1 += patternF1(kb, rep, spec)
		t := spec.Table
		if payloads[i], err = json.Marshal(jobs.SubmitRequest{
			Table:  jobs.TableDoc{Name: t.Name, Columns: t.Columns, Rows: t.Rows},
			Params: jobParams(),
		}); err != nil {
			return nil, err
		}
	}
	o.values["crowd_questions"] = float64(questions)
	o.values["pattern_f1"] = f1 / float64(n)

	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	c := &client{http: &http.Client{Transport: transport, Timeout: time.Minute}, base: srv.base}

	// Warm-up job, untimed.
	if id, _, err := c.submit(payloads[0]); err != nil {
		return nil, fmt.Errorf("warm-up submit: %w", err)
	} else if doc, err := c.await(id); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	} else if !bytes.Equal(doc, refDocs[0]) {
		return nil, fmt.Errorf("warm-up job: report differs from the in-process reference")
	}

	// The schedule: evenly spaced sends at jobRate over the window. At 6
	// jobs/s a job's run (about 100 ms on two CPUs) rarely overlaps the
	// next one's; Poisson arrivals made two jobs share the CPUs about half
	// the time, and moved the median latency by a quarter to a third from
	// run to run with the same offered rate.
	due := make([]time.Duration, max(1, int(math.Round(cfg.jobRate*cfg.seconds.Seconds()))))
	for i := range due {
		due[i] = time.Duration(float64(i) / cfg.jobRate * float64(time.Second))
	}

	cpu := startCPUWindow()
	start := time.Now().Add(10 * time.Millisecond)
	sent := make(chan sentJob, len(due)) // sized to the number of sends: the dispatcher never blocks on it
	var late []float64
	go func() {
		defer close(sent)
		for k, d := range due {
			at := start.Add(d)
			time.Sleep(time.Until(at))
			j := sentJob{table: k % n, due: at, sent: time.Now()}
			late = append(late, ms(j.sent.Sub(at)))
			j.id, j.ack, j.err = c.submit(payloads[j.table])
			sent <- j
		}
	}()

	var lat []time.Duration
	var submitMS, waitMS, runMS, resultMS []float64
	var rows int
	var last time.Time
	var outstanding []sentJob
	open := true
	giveUp := start.Add(cfg.seconds + 2*time.Minute)
	for open || len(outstanding) > 0 {
		if len(outstanding) == 0 {
			j, ok := <-sent
			if !ok {
				break
			}
			outstanding = append(outstanding, j)
		}
		for drained := false; open && !drained; {
			select {
			case j, ok := <-sent:
				if !ok {
					open = false
				} else {
					outstanding = append(outstanding, j)
				}
			default:
				drained = true
			}
		}
		kept := outstanding[:0]
		for _, j := range outstanding {
			if j.err != nil {
				o.attempted++
				o.fail("submit of %s: %v", in.specs[j.table].Table.Name, j.err)
				continue
			}
			reqStart := time.Now()
			doc, ready, err := c.result(j.id)
			now := time.Now()
			switch {
			case err != nil:
				o.attempted++
				o.fail("job %s: %v", j.id, err)
			case !ready:
				if now.After(giveUp) {
					o.attempted++
					o.fail("job %s: not finished %v after the window", j.id, 2*time.Minute)
					continue
				}
				kept = append(kept, j)
			case !bytes.Equal(doc, refDocs[j.table]):
				o.attempted++
				o.fail("job %s (%s): report differs from the reference", j.id, in.specs[j.table].Table.Name)
			default:
				o.attempted++
				lat = append(lat, now.Sub(j.due))
				rows += in.specs[j.table].Table.NumRows()
				last = now
				if o.tracer != nil {
					st, err := c.status(j.id)
					if err != nil {
						o.fail("job %s status: %v", j.id, err)
						continue
					}
					op := o.tracer.newOp()
					root := o.tracer.record(op, 0, "service.job", j.due, now)
					o.tracer.record(op, root, "jobs.submit", j.sent, j.ack)
					o.tracer.record(op, root, "jobs.queue_wait", st.SubmittedAt, *st.StartedAt)
					o.tracer.record(op, root, "jobs.run", *st.StartedAt, *st.FinishedAt)
					o.tracer.record(op, root, "jobs.result", reqStart, now)
					submitMS = append(submitMS, ms(j.ack.Sub(j.sent)))
					waitMS = append(waitMS, ms(st.StartedAt.Sub(st.SubmittedAt)))
					runMS = append(runMS, ms(st.FinishedAt.Sub(*st.StartedAt)))
					resultMS = append(resultMS, ms(now.Sub(reqStart)))
				}
			}
		}
		outstanding = kept
		if len(outstanding) > 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	o.timings(lat)
	if last.After(start) {
		o.values["katara.rows_per_s"] = float64(rows) / last.Sub(start).Seconds()
	}
	fmt.Fprintf(cfg.log, "jobs: %d sent, generator late p95 %.2f ms\n", len(due), percentile(late, 0.95))

	if o.tracer != nil {
		// Layer by layer: each table's job pipeline replayed in-process, the
		// job's KB clone and session snapshot included.
		var traced []time.Duration
		counts := make([]replayCounts, n)
		for i, spec := range in.specs {
			o.attempted++
			op := o.tracer.newOp()
			d, cnt, err := tracedOp(o.tracer, op, refs[i], func(root int) replayInput {
				var kb *rdf.Store
				o.tracer.wrap(op, root, "rdf.clone", func() { kb = in.kb.Store.Clone() })
				o.tracer.wrap(op, root, "rdf.snapshot", func() { kb.CloneExact() })
				return replayInput{kb: kb, tbl: spec.Table, fo: trustAll{}}
			})
			if err != nil {
				o.fail("traced replay of %s: %v", spec.Table.Name, err)
				continue
			}
			traced = append(traced, d)
			counts[i] = cnt
		}
		layerMetrics(o.tracer.profiles(), o.values)
		replayMetrics(o.values, sumCounts(counts))
		o.values["crowd.memo_hit_ratio"] = memoHitRatio(timings...)
		o.values["repair.f1"] = 0 // WebTables carry no injected errors
		o.values["runtime.gc_cpu_share"] = cpu.gcShare()
		o.values["trace.overhead_share"] = overheadShare(traced, refTimes)
		o.values["jobs.submit_ms"] = median(submitMS)
		o.values["jobs.queue_wait_ms"] = median(waitMS)
		o.values["jobs.run_ms"] = median(runMS)
		o.values["jobs.result_ms"] = median(resultMS)
		o.values["jobs.rejected"] = float64(c.rejected)
		o.values["loadgen.late_p95_ms"] = percentile(late, 0.95)
		idleLayers(o.values, appendLayers...)
	}
	return o, nil
}

// jobOptions are the Options the job manager gives every job: the job
// parameters, provenance recording and an incremental session. telemetry
// turns on the run's counters (for the traced mode's ratios).
func jobOptions(telemetry bool) katara.Options {
	opts := jobParams().Options()
	opts.Provenance = katara.NewProvenance()
	opts.Incremental = true
	opts.Telemetry = telemetry
	return opts
}

// client is the load generator's HTTP side.
type client struct {
	http     *http.Client
	base     string
	rejected int // 429 answers to submissions
}

// submit POSTs one job and returns its ID and the time the 202 arrived. A
// refusal (429, 5xx) is an error: in an open loop a refused job is a failed
// job.
func (c *client) submit(payload []byte) (string, time.Time, error) {
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", time.Time{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ack := time.Now()
	if err != nil {
		return "", ack, err
	}
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.rejected++
		}
		return "", ack, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var sub jobs.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", ack, fmt.Errorf("submit response: %w", err)
	}
	return sub.ID, ack, nil
}

// result fetches a job's result: the report document's bytes once the job
// is done, ready=false while it is not terminal.
func (c *client) result(id string) (doc []byte, ready bool, err error) {
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/result")
	if err != nil {
		return nil, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusConflict:
		return nil, false, nil
	case http.StatusOK:
	default:
		return nil, false, fmt.Errorf("result: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var res jobs.ResultDoc
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, false, fmt.Errorf("result: %w", err)
	}
	if res.State != jobs.StateDone {
		return nil, false, fmt.Errorf("job ended %s: %s", res.State, res.Error)
	}
	doc, err = json.Marshal(res.Report)
	return doc, true, err
}

// await polls a job's result until it is done, for at most two minutes.
func (c *client) await(id string) ([]byte, error) {
	giveUp := time.Now().Add(2 * time.Minute)
	for {
		doc, ready, err := c.result(id)
		if err != nil || ready {
			return doc, err
		}
		if time.Now().After(giveUp) {
			return nil, fmt.Errorf("job %s not done after two minutes", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// status fetches a job's status document.
func (c *client) status(id string) (jobs.JobStatus, error) {
	var st jobs.JobStatus
	resp, err := c.http.Get(c.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return st, fmt.Errorf("status of a finished job lacks its timestamps")
	}
	return st, nil
}
