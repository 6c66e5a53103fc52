// Command kchaos is the crash-recovery chaos harness for katarad: it runs a
// kload-style submission burst while SIGKILLing and restarting the daemon at
// seeded random points, then asserts the fault-tolerance contract:
//
//   - no accepted job is ever lost: every ID acknowledged with 202 is still
//     known to the final daemon and reaches a terminal state;
//   - every surviving job completes (no poisoned quarantines under plain
//     crash chaos) and its result document's report is byte-identical to a
//     crash-free oracle run of the same submission;
//   - append chains survive too: -appends root+append pairs run through the
//     burst, and every appended job's cumulative report must match a
//     crash-free oracle append — a crash between the append's journal
//     record and its execution must replay into the identical document;
//   - /metrics stays promlint-clean, and every cumulative series is
//     monotone non-decreasing within each daemon boot (scrapes spanning a
//     kill are discarded — a fresh boot legitimately restarts counters).
//
// Usage:
//
//	kchaos -katarad ./katarad -kb small.nt -in dirty.csv \
//	       [-jobs 40] [-kills 3] [-appends 6] [-seed 1] \
//	       [-addr 127.0.0.1:18571] [-journal-dir DIR] \
//	       [-kill-min 150ms] [-kill-max 400ms]
//
// Exit status 0 means the run survived every kill with all invariants
// intact; any violation prints the cause and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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
	fs := flag.NewFlagSet("kchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bin         = fs.String("katarad", "", "path to the katarad binary (required)")
		kbPath      = fs.String("kb", "", "knowledge base file passed to katarad (required)")
		inPath      = fs.String("in", "", "CSV table to submit (required)")
		addr        = fs.String("addr", "127.0.0.1:18571", "address katarad listens on")
		nJobs       = fs.Int("jobs", 40, "total jobs to get accepted")
		kills       = fs.Int("kills", 3, "SIGKILL/restart cycles to inject mid-burst")
		appends     = fs.Int("appends", 6, "root+append chains to run through the burst")
		seed        = fs.Int64("seed", 1, "seed for the kill-point schedule")
		concurrency = fs.Int("concurrency", 8, "submissions in flight at once")
		workers     = fs.Int("workers", 2, "parallelism of each job (-1 = GOMAXPROCS)")
		journalDir  = fs.String("journal-dir", "", "journal directory (default: a fresh temp dir)")
		killMin     = fs.Duration("kill-min", 150*time.Millisecond, "minimum delay before each kill")
		killMax     = fs.Duration("kill-max", 400*time.Millisecond, "maximum delay before each kill")
		scrape      = fs.Duration("scrape", 25*time.Millisecond, "interval between /metrics scrapes")
		timeout     = fs.Duration("timeout", 3*time.Minute, "overall run deadline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *kbPath == "" || *inPath == "" {
		fmt.Fprintln(stderr, "kchaos: -katarad, -kb and -in are required")
		fs.Usage()
		return 2
	}
	if *nJobs < 1 || *kills < 0 || *appends < 0 || *concurrency < 1 || *killMin <= 0 || *killMax < *killMin {
		fmt.Fprintln(stderr, "kchaos: invalid -jobs/-kills/-appends/-concurrency/-kill-min/-kill-max")
		return 2
	}

	f, err := os.Open(*inPath)
	if err != nil {
		fmt.Fprintln(stderr, "kchaos:", err)
		return 1
	}
	tbl, err := table.ReadCSV("chaos", f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "kchaos:", err)
		return 1
	}
	payload, err := json.Marshal(jobs.SubmitRequest{
		Table:  jobs.TableDoc{Name: tbl.Name, Columns: tbl.Columns, Rows: tbl.Rows},
		Params: jobs.Params{Workers: *workers},
	})
	if err != nil {
		fmt.Fprintln(stderr, "kchaos:", err)
		return 1
	}
	// The append delta: the table's first rows re-posted onto a finished
	// root job. Duplicate rows are fine — the contract under test is crash
	// durability of the chain, not cleaning novelty.
	deltaN := tbl.NumRows()
	if deltaN > 8 {
		deltaN = 8
	}
	appendPayload, err := json.Marshal(jobs.AppendRequest{Rows: tbl.Rows[:deltaN]})
	if err != nil {
		fmt.Fprintln(stderr, "kchaos:", err)
		return 1
	}

	work, err := os.MkdirTemp("", "kchaos-*")
	if err != nil {
		fmt.Fprintln(stderr, "kchaos:", err)
		return 1
	}
	keepWork := false
	defer func() {
		if !keepWork {
			os.RemoveAll(work)
		}
	}()
	dir := *journalDir
	if dir == "" {
		dir = filepath.Join(work, "journal")
	}

	h := &harness{
		bin: *bin, kb: *kbPath, addr: *addr, base: "http://" + *addr,
		logDir:   work,
		client:   &http.Client{Timeout: 10 * time.Second},
		stdout:   stdout,
		stderr:   stderr,
		deadline: time.Now().Add(*timeout),
	}

	// Phase 1 — the crash-free oracle: one uninterrupted boot (separate
	// journal dir), one root job plus one append, their report bytes are the
	// truth every chaos job and chain must reproduce.
	oracle, appendOracle, code := h.oracleRun(filepath.Join(work, "oracle-journal"), payload, appendPayload)
	if code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "kchaos: oracle reports captured (root %d bytes, append %d bytes)\n", len(oracle), len(appendOracle))

	// Phase 2 — the chaos run.
	if code := h.chaosRun(dir, payload, appendPayload, oracle, appendOracle, *nJobs, *kills, *appends, *seed, *concurrency, *killMin, *killMax, *scrape); code != 0 {
		fmt.Fprintf(stderr, "kchaos: FAIL (daemon logs under %s)\n", work)
		keepWork = true // the scene of the crime
		return code
	}
	fmt.Fprintf(stdout, "kchaos: PASS — %d jobs, %d append chains, %d kills, zero lost, all byte-identical to oracle\n", *nJobs, *appends, *kills)
	return 0
}

// harness holds everything shared across boots of the daemon under test.
type harness struct {
	bin, kb, addr, base string
	logDir              string
	client              *http.Client
	stdout, stderr      *os.File
	deadline            time.Time

	boot int // boot counter, names the per-boot log files
}

func (h *harness) fail(format string, args ...any) {
	fmt.Fprintf(h.stderr, "kchaos: FAIL: "+format+"\n", args...)
}

// start boots one katarad process on the shared address and waits for
// /healthz. The returned Cmd is running; kill it with SIGKILL or SIGTERM.
func (h *harness) start(journalDir string) (*exec.Cmd, error) {
	h.boot++
	logF, err := os.Create(filepath.Join(h.logDir, fmt.Sprintf("katarad-boot%d.log", h.boot)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(h.bin, "-kb", h.kb, "-listen", h.addr, "-journal-dir", journalDir)
	cmd.Stdout = logF
	cmd.Stderr = logF
	if err := cmd.Start(); err != nil {
		logF.Close()
		return nil, err
	}
	// The file can close once the process owns the descriptors.
	logF.Close()
	for i := 0; i < 600; i++ {
		resp, err := h.client.Get(h.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return cmd, nil
			}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil, fmt.Errorf("boot %d: katarad never became healthy", h.boot)
}

// oracleRun boots an uninterrupted daemon, runs one root job and one append
// onto it, and returns both report byte strings.
func (h *harness) oracleRun(journalDir string, payload, appendPayload []byte) ([]byte, []byte, int) {
	cmd, err := h.start(journalDir)
	if err != nil {
		h.fail("oracle: %v", err)
		return nil, nil, 1
	}
	defer func() {
		_ = cmd.Process.Signal(os.Interrupt)
		_ = cmd.Wait()
	}()
	id, err := h.submit(payload, nil)
	if err != nil {
		h.fail("oracle submit: %v", err)
		return nil, nil, 1
	}
	rep, state, err := h.awaitResult(id)
	if err != nil {
		h.fail("oracle job %s: %v", id, err)
		return nil, nil, 1
	}
	if state != jobs.StateDone {
		h.fail("oracle job %s ended %s", id, state)
		return nil, nil, 1
	}
	appID, err := h.appendJob(id, appendPayload, nil)
	if err != nil {
		h.fail("oracle append: %v", err)
		return nil, nil, 1
	}
	appRep, state, err := h.awaitResult(appID)
	if err != nil {
		h.fail("oracle append job %s: %v", appID, err)
		return nil, nil, 1
	}
	if state != jobs.StateDone {
		h.fail("oracle append job %s ended %s", appID, state)
		return nil, nil, 1
	}
	return rep, appRep, 0
}

// submit POSTs one job until it is accepted, tolerating connection errors
// (daemon mid-restart), 429 (queue full) and 503 (draining). accepted, when
// non-nil, counts 202 responses.
func (h *harness) submit(payload []byte, accepted *atomic.Int64) (string, error) {
	backoff := 2 * time.Millisecond
	for {
		if time.Now().After(h.deadline) {
			return "", fmt.Errorf("not accepted by deadline")
		}
		resp, err := h.client.Post(h.base+"/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			// The daemon is down between kill and restart: retry.
			time.Sleep(backoff)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			time.Sleep(backoff)
			continue
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var sub jobs.SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				return "", fmt.Errorf("submit response: %w", err)
			}
			if accepted != nil {
				accepted.Add(1)
			}
			return sub.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		default:
			return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
		}
	}
}

// appendJob POSTs an append onto parent until it is accepted, tolerating
// connection errors, 429/503 backpressure and 409 conflicts. A 409 is
// ambiguous under crash chaos: either the parent is (re-)running — a replayed
// boot re-executes terminal-looking jobs that were mid-flight — or our own
// earlier attempt was journalled but its ack was lost to a kill, in which
// case the parent is already extended and the child exists under an ID we
// never saw. The listing disambiguates: a job whose Parent is ours IS our
// append (each parent is extended at most once, by us), so adopt its ID.
func (h *harness) appendJob(parent string, payload []byte, accepted *atomic.Int64) (string, error) {
	backoff := 2 * time.Millisecond
	for {
		if time.Now().After(h.deadline) {
			return "", fmt.Errorf("append on %s not accepted by deadline", parent)
		}
		resp, err := h.client.Post(h.base+"/jobs/"+parent+"/append", "application/json", bytes.NewReader(payload))
		if err != nil {
			time.Sleep(backoff)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			time.Sleep(backoff)
			continue
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var sub jobs.SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				return "", fmt.Errorf("append response: %w", err)
			}
			if accepted != nil {
				accepted.Add(1)
			}
			return sub.ID, nil
		case http.StatusConflict:
			if id := h.childOf(parent); id != "" {
				if accepted != nil {
					accepted.Add(1)
				}
				return id, nil
			}
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		case http.StatusNotFound:
			// THE cardinal sin again: a done parent the daemon forgot.
			return "", fmt.Errorf("append parent %s lost (404)", parent)
		default:
			return "", fmt.Errorf("append: status %d: %s", resp.StatusCode, body)
		}
	}
}

// childOf returns the ID of the job extending parent, if the listing shows
// one ("" otherwise, including while the daemon is unreachable).
func (h *harness) childOf(parent string) string {
	resp, err := h.client.Get(h.base + "/jobs")
	if err != nil {
		return ""
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != 200 {
		return ""
	}
	var list []jobs.JobStatus
	if err := json.Unmarshal(body, &list); err != nil {
		return ""
	}
	for _, st := range list {
		if st.Parent == parent {
			return st.ID
		}
	}
	return ""
}

// awaitResult polls one job's result to a terminal state, tolerating
// connection errors and restarts, and returns the report bytes + state.
func (h *harness) awaitResult(id string) ([]byte, jobs.State, error) {
	for {
		if time.Now().After(h.deadline) {
			return nil, "", fmt.Errorf("not terminal by deadline")
		}
		resp, err := h.client.Get(h.base + "/jobs/" + id + "/result")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var res jobs.ResultDoc
			if err := json.Unmarshal(body, &res); err != nil {
				return nil, "", fmt.Errorf("result: %w", err)
			}
			if res.State != jobs.StateDone {
				return nil, res.State, fmt.Errorf("terminal state %s (error: %s)", res.State, res.Error)
			}
			rep, err := json.Marshal(res.Report)
			if err != nil {
				return nil, "", err
			}
			return rep, res.State, nil
		case http.StatusConflict:
			time.Sleep(10 * time.Millisecond)
		case http.StatusNotFound:
			// THE cardinal sin: an accepted job the daemon no longer knows.
			return nil, "", fmt.Errorf("accepted job lost after restart (404)")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// awaitBacklog polls the job listing until every ID in backlog is terminal
// — the post-restart barrier that bounds each job's exposure to one crash.
func (h *harness) awaitBacklog(backlog []string) error {
	for {
		if time.Now().After(h.deadline) {
			return fmt.Errorf("backlog of %d jobs not terminal by deadline", len(backlog))
		}
		resp, err := h.client.Get(h.base + "/jobs")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != 200 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var list []jobs.JobStatus
		if err := json.Unmarshal(body, &list); err != nil {
			return fmt.Errorf("job listing: %w", err)
		}
		state := make(map[string]jobs.State, len(list))
		for _, st := range list {
			state[st.ID] = st.State
		}
		settled := true
		for _, id := range backlog {
			s, ok := state[id]
			if !ok {
				return fmt.Errorf("accepted job %s missing from listing after restart", id)
			}
			if !s.Terminal() {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosRun is phase 2: a submission burst and append chains racing a seeded
// kill/restart schedule, followed by convergence and the full assertion
// sweep.
func (h *harness) chaosRun(journalDir string, payload, appendPayload, oracle, appendOracle []byte, nJobs, kills, appends int, seed int64, concurrency int, killMin, killMax, scrapeEvery time.Duration) int {
	cmd, err := h.start(journalDir)
	if err != nil {
		h.fail("%v", err)
		return 1
	}
	// bootGen fences scrapes: it is bumped immediately before each SIGKILL,
	// so any scrape observing the same generation before and after its
	// request was answered entirely by one boot and must be monotone
	// against that boot's history.
	var bootGen atomic.Int64
	var accepted atomic.Int64
	var violations atomic.Int64

	// Scraper: lint every successful sample; check monotonicity per boot.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		prevByGen := map[int64]map[string]float64{}
		clean, discarded := 0, 0
		for {
			select {
			case <-stopScrape:
				fmt.Fprintf(h.stdout, "kchaos: %d clean scrapes across boots (%d spanning a kill, discarded)\n", clean, discarded)
				return
			case <-time.After(scrapeEvery):
			}
			genBefore := bootGen.Load()
			resp, err := h.client.Get(h.base + "/metrics")
			if err != nil {
				continue // daemon mid-restart
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != 200 {
				continue
			}
			if err := telemetry.LintExposition(bytes.NewReader(body)); err != nil {
				violations.Add(1)
				h.fail("scrape not lint-clean: %v", err)
				return
			}
			if bootGen.Load() != genBefore {
				discarded++ // spanned a kill; monotonicity undefined
				continue
			}
			prev := prevByGen[genBefore]
			if prev == nil {
				prev = map[string]float64{}
				prevByGen[genBefore] = prev
			}
			if err := telemetry.CheckMonotone(prev, body); err != nil {
				violations.Add(1)
				h.fail("boot gen %d: %v", genBefore, err)
				return
			}
			clean++
		}
	}()

	// Submitter pool: keep submitting until nJobs are accepted; every
	// accepted ID is recorded for the assertion sweep. Appended jobs are
	// additionally tracked in appendSet: their reports compare against the
	// append oracle, not the root oracle.
	var (
		mu        sync.Mutex
		ids       []string
		appendSet = map[string]bool{}
	)
	submitDone := make(chan struct{})
	go func() {
		defer close(submitDone)
		sem := make(chan struct{}, concurrency)
		var wg sync.WaitGroup
		for i := 0; i < nJobs; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				id, err := h.submit(payload, &accepted)
				if err != nil {
					violations.Add(1)
					h.fail("submit: %v", err)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}()

	// Appender: root+append chains interleaved with the burst, so kills land
	// between a chain's acceptance, its root's completion, its append record
	// and the append's execution — every window the journal must cover.
	appendDone := make(chan struct{})
	go func() {
		defer close(appendDone)
		for i := 0; i < appends; i++ {
			root, err := h.submit(payload, &accepted)
			if err != nil {
				violations.Add(1)
				h.fail("append chain %d: root submit: %v", i, err)
				return
			}
			mu.Lock()
			ids = append(ids, root)
			mu.Unlock()
			if _, _, err := h.awaitResult(root); err != nil {
				violations.Add(1)
				h.fail("append chain %d: root %s: %v", i, root, err)
				return
			}
			child, err := h.appendJob(root, appendPayload, &accepted)
			if err != nil {
				violations.Add(1)
				h.fail("append chain %d: %v", i, err)
				return
			}
			mu.Lock()
			ids = append(ids, child)
			appendSet[child] = true
			mu.Unlock()
		}
	}()

	// The seeded kill schedule: SIGKILL (no warning, no drain) and restart
	// on the same journal, kills times. After each restart the loop waits
	// for every job accepted before the kill to reach a terminal state
	// before arming the next kill: that bounds any job's exposure to one
	// crash, so crash chaos never trips the (correct, separately-tested)
	// two-crash poison quarantine — while the submitter keeps the burst
	// going, so later kills still land mid-load.
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < kills; k++ {
		delay := killMin + time.Duration(rng.Int63n(int64(killMax-killMin)+1))
		time.Sleep(delay)
		bootGen.Add(1)
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		mu.Lock()
		backlog := append([]string(nil), ids...)
		mu.Unlock()
		fmt.Fprintf(h.stdout, "kchaos: kill %d after %s (accepted so far: %d)\n", k+1, delay.Round(time.Millisecond), accepted.Load())
		cmd, err = h.start(journalDir)
		if err != nil {
			h.fail("restart after kill %d: %v", k+1, err)
			return 1
		}
		if err := h.awaitBacklog(backlog); err != nil {
			h.fail("after kill %d: %v", k+1, err)
			return 1
		}
	}

	<-submitDone
	<-appendDone

	// Convergence + assertions: every accepted job must be terminal, done,
	// and byte-identical to its oracle (root or append).
	mu.Lock()
	all := append([]string(nil), ids...)
	mu.Unlock()
	for _, id := range all {
		rep, state, err := h.awaitResult(id)
		if err != nil {
			violations.Add(1)
			h.fail("job %s: %v", id, err)
			continue
		}
		if state != jobs.StateDone {
			violations.Add(1)
			h.fail("job %s: terminal state %s, want done", id, state)
			continue
		}
		want := oracle
		if appendSet[id] {
			want = appendOracle
		}
		if !bytes.Equal(rep, want) {
			violations.Add(1)
			h.fail("job %s: report differs from crash-free oracle", id)
		}
	}

	close(stopScrape)
	<-scrapeDone

	// Graceful teardown of the final boot: SIGTERM must drain and exit 0.
	_ = cmd.Process.Signal(os.Interrupt) // queue is empty; fast path is fine
	if err := cmd.Wait(); err != nil {
		violations.Add(1)
		h.fail("final shutdown: %v", err)
	}

	if violations.Load() > 0 {
		return 1
	}
	return 0
}
