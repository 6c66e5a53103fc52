// Command katarad serves cleaning as a service: a long-running daemon that
// loads one knowledge base at startup and accepts concurrent cleaning jobs
// over HTTP/JSON. Each job cleans its submitted table against a private
// copy-on-write share of the pristine KB through the pipeline, with per-job
// budgets, deadlines and live progress.
//
// Usage:
//
//	katarad -kb yago.nt [-listen :8080] [-max-concurrent 4] [-max-queue 64]
//	        [-journal-dir /var/lib/katarad] [-drain-timeout 30s]
//	        [-log-level info] [-log-json]
//
// Endpoints:
//
//	POST /jobs               submit {"table": {...}, "params": {...}}
//	GET  /jobs               list jobs
//	GET  /jobs/{id}          status + live progress
//	GET  /jobs/{id}/result   final report (409 until the job finishes)
//	GET  /jobs/{id}/progress live progress; SSE with Accept: text/event-stream
//	GET  /jobs/{id}/explain  per-cell evidence chain (?row=R&col=C)
//	POST /jobs/{id}/append   extend a done job with {"rows": [...]} — a new
//	                         job cleans the delta incrementally against the
//	                         parent's session (409 while the parent runs or
//	                         once it is extended; chains replay after crashes)
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	GET  /healthz            liveness probe
//	GET  /version            build metadata (module, version, VCS revision)
//	GET  /metrics            Prometheus exposition (all jobs merged, monotone)
//
// Logs are structured (log/slog): text by default, JSON with -log-json.
// Lifecycle events go to stdout, errors to stderr; every request is logged
// with its method, path, status, duration, and — for job routes — the job
// ID and its parallelism.
//
// With -journal-dir, every job transition is recorded in a crash-safe
// write-ahead log: a submission is fsynced before it is acknowledged, so an
// accepted job survives SIGKILL. A restarted daemon replays the journal —
// finished jobs stay retrievable with byte-identical results, interrupted
// jobs are re-queued, and a job seen running across two consecutive crashes
// is quarantined as failed (poisoned) instead of re-entering the crash loop.
//
// SIGTERM drains gracefully: admission stops (503 + Retry-After), running
// jobs get -drain-timeout to finish, still-queued jobs are left in the
// journal for the next boot, and the process exits 0. SIGINT shuts down
// fast: queued and running jobs are cancelled (journaled as cancelled).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"katara"
	"katara/internal/jobs"
	"katara/internal/logging"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: all cleanup runs via defer, so every exit path
// tears the daemon down completely.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("katarad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kbPath        = fs.String("kb", "", "knowledge base in N-Triples (.nt), Turtle (.ttl) or snapshot (.snap) format (required)")
		listen        = fs.String("listen", ":8080", "serve the job API on this address")
		maxConcurrent = fs.Int("max-concurrent", 4, "jobs running at once")
		maxQueue      = fs.Int("max-queue", 64, "jobs waiting in the queue before submissions are rejected")
		journalDir    = fs.String("journal-dir", "", "durable job journal directory (empty: job state does not survive restarts)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM lets running jobs finish before exiting")
		logLevel      = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logJSON       = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "katarad:", err)
		return 2
	}
	log := logging.New(stdout, stderr, level, *logJSON)
	if *kbPath == "" {
		fmt.Fprintln(stderr, "katarad: -kb is required")
		fs.Usage()
		return 2
	}
	if *maxConcurrent < 1 || *maxQueue < 1 {
		fmt.Fprintln(stderr, "katarad: -max-concurrent and -max-queue must be >= 1")
		return 2
	}

	kb := katara.NewKB()
	n, err := loadKB(kb, *kbPath)
	if err != nil {
		log.Error("knowledge base load failed", "path", *kbPath, "error", err.Error())
		return 1
	}
	log.Info("loaded knowledge base", "triples", n, "path", *kbPath)

	var (
		journal *jobs.Journal
		replay  *jobs.Replay
	)
	if *journalDir != "" {
		journal, replay, err = jobs.OpenJournal(*journalDir)
		if err != nil {
			log.Error("journal open failed", "dir", *journalDir, "error", err.Error())
			return 1
		}
		defer journal.Close()
	}

	m := jobs.NewManager(jobs.Config{
		KB:            kb,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Journal:       journal,
		Replay:        replay,
	})
	// The drain path exits without Close: cancelling queued jobs would
	// journal them terminal, and the whole point of draining is to leave
	// them re-queueable for the next boot.
	closeManager := true
	defer func() {
		if closeManager {
			m.Close()
		}
	}()
	if replay != nil {
		rs := m.Recovery()
		log.Info("journal replayed",
			"finished", rs.Terminal, "requeued", rs.Requeued, "poisoned", rs.Poisoned,
			"boots", rs.Boots, "truncated_bytes", rs.TruncatedBytes)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Error("listen failed", "addr", *listen, "error", err.Error())
		return 1
	}
	srv := &http.Server{
		Handler:           m.LogRequests(log, jobs.NewHandler(m)),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Info("serving job API", "addr", ln.Addr().String(),
		"max_concurrent", *maxConcurrent, "max_queue", *maxQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		if s == syscall.SIGTERM {
			// Graceful drain: refuse new work while the API stays up, so
			// clients can keep polling results of jobs that finish.
			log.Info("SIGTERM received, draining", "timeout", drainTimeout.String())
			m.StartDraining()
			if m.Drain(*drainTimeout) {
				log.Info("drained: no jobs running")
			} else {
				log.Warn("drain timeout: unfinished jobs left journaled for restart")
			}
			closeManager = false
		} else {
			log.Info("signal received, shutting down", "signal", s.String())
		}
	case err := <-serveErr:
		log.Error("serve failed", "error", err.Error())
		return 1
	}

	// Drain in-flight HTTP (so a mid-scrape /metrics completes), then tear
	// down the job pool via the deferred Close (fast path only) and sync
	// the journal via its deferred Close.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve failed", "error", err.Error())
		return 1
	}
	log.Info("bye")
	return 0
}

// loadKB reads the KB file, picking the parser from the extension (same
// conventions as cmd/katara).
func loadKB(kb *katara.KB, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle"):
		return kb.ParseTurtle(f)
	case strings.HasSuffix(path, ".snap"):
		return kb.ReadSnapshot(f)
	default:
		return kb.ParseNTriples(f)
	}
}
