// Command katara cleans a CSV table against an N-Triples knowledge base:
// it discovers the table's pattern, annotates every tuple, reports
// suspected errors with top-k possible repairs, and can write a repaired
// copy of the table.
//
// Usage:
//
//	katara -kb yago.nt -in dirty.csv [-out cleaned.csv] [-k 3]
//	       [-assume trust|skeptic] [-facts new-facts.nt] [-v]
//	       [-workers N] [-stats] [-dedup=false]
//	       [-fault-rate 0.3] [-budget 100] [-deadline 30s] [-degrade trust|unknown]
//	       [-provenance lineage.jsonl] [-explain ROW,COL]
//	       [-log-level info] [-log-json]
//	katara -paper-scale [-workers -1] [-explain ROW,COL]
//
// -provenance records the run's full decision lineage — pattern scores,
// validation steps, per-tuple KB and crowd evidence, repair candidates with
// costs — as a JSONL journal. -explain ROW,COL prints the human-readable
// evidence chain behind one cell after the run; either flag enables the
// recorder. Diagnostics are structured logs (log/slog); -log-level and
// -log-json control verbosity and format.
//
// -paper-scale is a self-contained reproduction of the paper's headline
// workload: it generates the synthetic world, a DBpedia-shaped KB and the
// full 316K-row dirty Person table, cleans it end to end, and prints an
// aggregate summary (rows, distinct signatures, questions, wall-clock, peak
// memory) instead of per-row repairs.
//
// Without a crowd to consult, the -assume policy decides how to treat data
// the KB does not cover: "trust" (default) treats it as KB incompleteness
// and enriches the KB; "skeptic" treats it as erroneous and proposes
// repairs.
//
// The resilience flags exercise the unreliable-crowd layer: -fault-rate
// injects seeded worker faults (abandonment, transient errors, spam),
// -budget caps the crowd questions one run may consume, -deadline bounds
// the run's wall-clock, and -degrade picks what happens to tuples whose
// questions went unanswered when either ran out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"katara"
	"katara/internal/jobs"
	"katara/internal/logging"
	"katara/internal/rdf"
	"katara/internal/telemetry"
)

// skepticalFacts treats every fact missing from the KB as a data error.
type skepticalFacts struct{}

func (skepticalFacts) TypeHolds(string, rdf.ID) bool           { return false }
func (skepticalFacts) RelHolds(string, rdf.ID, string) bool    { return false }
func (skepticalFacts) PathHolds(string, []rdf.ID, string) bool { return false }

// interactiveFacts asks the human at the terminal — the CLI *is* the crowd.
type interactiveFacts struct {
	kb *katara.KB
	in *bufio.Scanner
}

func (f interactiveFacts) ask(prompt string) bool {
	fmt.Printf("%s [y/N] ", prompt)
	if !f.in.Scan() {
		return false
	}
	ans := strings.ToLower(strings.TrimSpace(f.in.Text()))
	return ans == "y" || ans == "yes"
}

func (f interactiveFacts) TypeHolds(value string, typ rdf.ID) bool {
	return f.ask(fmt.Sprintf("Is %q a %s?", value, f.kb.LabelOf(typ)))
}

func (f interactiveFacts) RelHolds(subj string, prop rdf.ID, obj string) bool {
	return f.ask(fmt.Sprintf("Does %q %s %q?", subj, f.kb.LabelOf(prop), obj))
}

func (f interactiveFacts) PathHolds(subj string, props []rdf.ID, obj string) bool {
	labels := make([]string, len(props))
	for i, p := range props {
		labels[i] = f.kb.LabelOf(p)
	}
	return f.ask(fmt.Sprintf("Is %q related to %q through %s?",
		subj, obj, strings.Join(labels, " then ")))
}

// main only converts run's code into the process exit status. Everything
// with cleanup obligations lives in run, where deferred flushes execute on
// every path — os.Exit here used to skip them, truncating -trace journals
// and dropping -memprofile output on error exits.
func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses flags, validates parameters, and executes the clean. Usage
// errors return 2, runtime errors 1.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("katara", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kbPath   = fs.String("kb", "", "knowledge base in N-Triples format (required)")
		inPath   = fs.String("in", "", "input table as CSV with a header row (required)")
		outPath  = fs.String("out", "", "write the repaired table to this CSV (top-1 repair applied)")
		factPath = fs.String("facts", "", "write newly inferred facts to this N-Triples file")
		k        = fs.Int("k", 3, "number of possible repairs per erroneous tuple")
		assume   = fs.String("assume", "trust", "policy for KB-uncovered data: trust|skeptic|ask (ask = answer crowd questions at the terminal)")
		paths    = fs.Bool("paths", false, "discover two-hop path relationships for unrelated column pairs")
		dotPath  = fs.String("dot", "", "write the validated pattern as a Graphviz digraph to this file")
		verbose  = fs.Bool("v", false, "print per-tuple annotations")
		stats    = fs.Bool("stats", false, "print pipeline stage timings, counters and latency percentiles")
		statsAll = fs.Bool("stats-verbose", false, "include zero-valued counters and empty histograms in -stats output")
		workers  = fs.Int("workers", 0, "parallelism of the parallel stages: contiguous row ranges per stage (0 or 1 = serial, -1 = GOMAXPROCS)")
		dedup    = fs.Bool("dedup", true, "distinct-signature execution: compute coverage, crowd questions and repairs once per distinct row signature (-dedup=false disables)")

		paperScale = fs.Bool("paper-scale", false, "run the self-contained full-paper-scale workload (316K-row Person table against a generated KB) and print an aggregate summary; -kb and -in are not required")

		statsJSON = fs.String("stats-json", "", "write the full telemetry snapshot as JSON to this file (- = stdout)")
		tracePath = fs.String("trace", "", "write a JSONL span journal of the run to this file")
		listen    = fs.String("listen", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address (e.g. :8080) for the duration of the run")
		linger    = fs.Duration("linger", 0, "keep the -listen server up this long after the run completes (for late scrapes)")

		faultRate = fs.Float64("fault-rate", 0, "per-assignment crowd fault probability in [0,1), split across abandonment/transient/spam")
		budget    = fs.Int("budget", 0, "cap on crowd questions per run (0 = unlimited)")
		deadline  = fs.Duration("deadline", 0, "wall-clock bound for the run, e.g. 30s (0 = none)")
		degrade   = fs.String("degrade", "trust", "policy for tuples unanswered after budget/deadline exhaustion: trust|unknown")

		provPath    = fs.String("provenance", "", "write the decision-provenance journal as JSONL to this file (- = stdout)")
		explainFlag = fs.String("explain", "", "print the evidence chain behind cell ROW,COL after the run (e.g. -explain 12,2)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logJSON     = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	level, lerr := logging.ParseLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintln(stderr, "katara:", lerr)
		return 2
	}
	log := logging.New(stdout, stderr, level, *logJSON)
	var explain *cellRef
	if *explainFlag != "" {
		c, cerr := parseCell(*explainFlag)
		if cerr != nil {
			fmt.Fprintln(stderr, "katara:", cerr)
			return 2
		}
		explain = &c
	}
	if !*paperScale && (*kbPath == "" || *inPath == "") {
		fs.Usage()
		return 2
	}
	// One validator for every numeric knob, shared with katarad's submit
	// handler and the kexp driver, so all front doors reject the same
	// inputs with the same message.
	params := jobs.Params{
		Workers:    *workers,
		RepairK:    *k,
		Budget:     *budget,
		DeadlineMS: deadline.Milliseconds(),
		FaultRate:  *faultRate,
		Degrade:    *degrade,
		DedupOff:   !*dedup,
	}
	if *deadline > 0 && *deadline < time.Millisecond {
		// Sub-millisecond deadlines survive the ms conversion above.
		params.DeadlineMS = 1
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintln(stderr, "katara:", err)
		return 2
	}
	switch *assume {
	case "trust", "skeptic", "ask":
	default:
		fmt.Fprintf(stderr, "katara: unknown -assume %q\n", *assume)
		return 2
	}
	if *paperScale {
		if err := runPaperScale(params, *dedup, *provPath, explain, stdout); err != nil {
			log.Error("paper-scale run failed", "error", err.Error())
			return 1
		}
		return 0
	}

	err := clean(cleanConfig{
		kbPath: *kbPath, inPath: *inPath, outPath: *outPath, factPath: *factPath,
		dotPath: *dotPath, assume: *assume, paths: *paths, verbose: *verbose,
		stats: *stats, statsAll: *statsAll, statsJSON: *statsJSON,
		tracePath: *tracePath, listen: *listen, linger: *linger,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
		deadline: *deadline, params: params,
		provPath: *provPath, explain: explain, log: log,
	}, stdin, stdout, stderr)
	if err != nil {
		log.Error("run failed", "error", err.Error())
		return 1
	}
	return 0
}

// cellRef names one table cell for -explain.
type cellRef struct {
	row, col int
}

// parseCell parses the -explain argument "ROW,COL".
func parseCell(s string) (cellRef, error) {
	rs, cs, ok := strings.Cut(s, ",")
	if ok {
		row, err1 := strconv.Atoi(strings.TrimSpace(rs))
		col, err2 := strconv.Atoi(strings.TrimSpace(cs))
		if err1 == nil && err2 == nil && row >= 0 && col >= 0 {
			return cellRef{row: row, col: col}, nil
		}
	}
	return cellRef{}, fmt.Errorf("-explain wants ROW,COL (non-negative integers), got %q", s)
}

// cleanConfig carries the parsed flags into clean.
type cleanConfig struct {
	kbPath, inPath, outPath, factPath, dotPath string
	assume                                     string
	paths, verbose, stats, statsAll            bool
	statsJSON, tracePath, listen               string
	linger                                     time.Duration
	cpuProfile, memProfile                     string
	deadline                                   time.Duration
	params                                     jobs.Params
	provPath                                   string
	explain                                    *cellRef
	log                                        *slog.Logger
}

// clean runs the pipeline. Every cleanup — profile stop, journal flush,
// server close — is deferred, so it runs on error returns too.
func clean(cfg cleanConfig, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	if cfg.cpuProfile != "" {
		f, cerr := os.Create(cfg.cpuProfile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if cfg.memProfile != "" {
		defer func() {
			f, merr := os.Create(cfg.memProfile)
			if merr != nil {
				cfg.log.Error("-memprofile write failed", "error", merr.Error())
				return
			}
			defer f.Close()
			runtime.GC() // materialise live-heap stats before the snapshot
			if merr := pprof.WriteHeapProfile(f); merr != nil {
				cfg.log.Error("-memprofile write failed", "error", merr.Error())
			}
		}()
	}

	kb := katara.NewKB()
	if err := loadKB(kb, cfg.kbPath, cfg.log); err != nil {
		return err
	}
	in, err := os.Open(cfg.inPath)
	if err != nil {
		return err
	}
	tbl, err := readTable(in, cfg.inPath)
	in.Close()
	if err != nil {
		return err
	}

	opts := cfg.params.Options()
	opts.DiscoverPaths = cfg.paths
	opts.Telemetry = cfg.stats
	opts.Deadline = cfg.deadline

	// Either provenance flag — the journal or a single-cell explanation —
	// enables the recorder; with neither, the pipeline keeps its zero-cost
	// disabled path.
	var rec *katara.ProvenanceRecorder
	if cfg.provPath != "" || cfg.explain != nil {
		rec = katara.NewProvenance()
		opts.Provenance = rec
	}

	// Any observability consumer — text stats, JSON stats, span journal, or
	// the HTTP endpoints — needs the caller-owned pipeline so it can watch
	// (or drain) the run rather than only the final report.
	var pipe *katara.TelemetryPipeline
	if cfg.stats || cfg.statsJSON != "" || cfg.tracePath != "" || cfg.listen != "" {
		pipe = katara.NewTelemetry()
		opts.Pipeline = pipe
	}
	if cfg.tracePath != "" {
		f, terr := os.Create(cfg.tracePath)
		if terr != nil {
			return terr
		}
		journalW := bufio.NewWriter(f)
		pipe.SetJournal(telemetry.NewJournal(journalW))
		// The flush+close runs on EVERY exit path. A fatal-exit here used
		// to leave the journal truncated mid-span whenever anything after
		// this point failed.
		defer func() {
			if ferr := journalW.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("-trace: %w", ferr)
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("-trace: %w", cerr)
			}
			if jerr := pipe.Journal().Err(); jerr != nil && err == nil {
				err = fmt.Errorf("-trace: %w", jerr)
			}
		}()
	}
	var srv *telemetry.Server
	if cfg.listen != "" {
		srv = telemetry.NewServer(pipe)
		srv.SetTotalTuples(tbl.NumRows())
		srv.SetQuestionBudget(cfg.params.Budget)
		addr, serr := srv.Start(cfg.listen)
		if serr != nil {
			return serr
		}
		fmt.Fprintf(stdout, "observability endpoints on http://%s (/metrics /healthz /progress /debug/pprof/)\n", addr)
		defer srv.Close()
	}
	if cfg.params.FaultRate > 0 {
		// Split the requested fault mass: half abandonment, a quarter each
		// transient and spam — a plausibly shaped unreliable crowd.
		opts.Transport = katara.NewFaultInjector(katara.FaultConfig{
			Seed:          1,
			AbandonRate:   cfg.params.FaultRate * 0.5,
			TransientRate: cfg.params.FaultRate * 0.25,
			SpamRate:      cfg.params.FaultRate * 0.25,
		})
	}
	switch cfg.assume {
	case "trust":
		// nil FactOracle = trusting policy
	case "skeptic":
		opts.FactOracle = skepticalFacts{}
	case "ask":
		opts.FactOracle = interactiveFacts{kb: kb, in: bufio.NewScanner(stdin)}
	}

	cleaner := katara.NewCleaner(kb, katara.TrustingCrowd(), opts)
	report, err := cleaner.Clean(tbl)
	srv.MarkDone()
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "table %s: %d rows x %d columns\n", tbl.Name, tbl.NumRows(), tbl.NumCols())
	fmt.Fprintf(stdout, "pattern: %s\n", report.Pattern.Render(kb, tbl.Columns))
	if cfg.dotPath != "" {
		if err := os.WriteFile(cfg.dotPath, []byte(report.Pattern.DOT(kb, tbl.Columns)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pattern graph written to %s\n", cfg.dotPath)
	}
	nKB, nCrowd, nErr, nUnknown := 0, 0, 0, 0
	for _, a := range report.Annotations {
		switch a.Label {
		case katara.ValidatedByKB:
			nKB++
		case katara.ValidatedByCrowd:
			nCrowd++
		case katara.Unknown:
			nUnknown++
		default:
			nErr++
		}
		if cfg.verbose {
			suffix := ""
			if a.Degraded {
				suffix = "  (degraded)"
			}
			fmt.Fprintf(stdout, "  row %-5d %s%s\n", a.Row, a.Label, suffix)
		}
	}
	fmt.Fprintf(stdout, "annotations: %d validated by KB, %d assumed correct, %d erroneous",
		nKB, nCrowd, nErr)
	if nUnknown > 0 {
		fmt.Fprintf(stdout, ", %d unknown", nUnknown)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "new facts inferred: %d\n", len(report.NewFacts))
	if d := report.Degraded; d.Any() {
		fmt.Fprintf(stdout, "degraded run: pattern-fallback=%v unanswered-tuples=%d repairs-skipped=%v\n",
			d.PatternFallback, d.Tuples, d.RepairsSkipped)
	}

	repaired := tbl.Clone()
	for row, reps := range report.Repairs {
		if len(reps) == 0 {
			fmt.Fprintf(stdout, "row %d: erroneous, no repair found\n", row)
			continue
		}
		fmt.Fprintf(stdout, "row %d: erroneous %v\n", row, tbl.Rows[row])
		for i, r := range reps {
			fmt.Fprintf(stdout, "  repair %d: %s\n", i+1, r)
		}
		for _, ch := range reps[0].Changes {
			repaired.Rows[row][ch.Col] = ch.To
		}
	}

	if cfg.outPath != "" {
		f, oerr := os.Create(cfg.outPath)
		if oerr != nil {
			return oerr
		}
		if err := repaired.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "repaired table written to %s\n", cfg.outPath)
	}
	if cfg.factPath != "" && len(report.NewFacts) > 0 {
		if err := writeFacts(kb, report.NewFacts, cfg.factPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "new facts written to %s\n", cfg.factPath)
	}
	if cfg.stats {
		report.Timings.Verbose = cfg.statsAll
		fmt.Fprint(stdout, report.Timings)
	}
	if cfg.statsJSON != "" {
		if err := writeStatsJSON(report.Timings, cfg.statsJSON); err != nil {
			return err
		}
	}
	if cfg.tracePath != "" {
		fmt.Fprintf(stdout, "span journal (%d spans) written to %s\n", pipe.Journal().Spans(), cfg.tracePath)
	}
	if cfg.provPath != "" {
		if err := writeProvenance(rec, cfg.provPath, stdout); err != nil {
			return err
		}
	}
	if cfg.explain != nil {
		fmt.Fprintln(stdout)
		rec.Explain(cfg.explain.row, cfg.explain.col).WriteText(stdout)
	}
	if srv != nil && cfg.linger > 0 {
		fmt.Fprintf(stdout, "run complete; serving for another %s\n", cfg.linger)
		time.Sleep(cfg.linger)
	}
	return nil
}

// writeStatsJSON emits the full snapshot — counters, stage timings,
// histogram percentiles — as indented JSON to path ("-" = stdout).
func writeStatsJSON(snap *katara.Timings, path string) error {
	if snap == nil {
		snap = &katara.Timings{}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeProvenance dumps the recorder's JSONL journal to path ("-" =
// stdout), confirming the write like the other artifact flags do.
func writeProvenance(rec *katara.ProvenanceRecorder, path string, stdout io.Writer) error {
	if path == "-" {
		return rec.WriteJournal(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.WriteJournal(w); err != nil {
		f.Close()
		return fmt.Errorf("-provenance: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("-provenance: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-provenance: %w", err)
	}
	fmt.Fprintf(stdout, "provenance journal written to %s\n", path)
	return nil
}

func loadKB(kb *katara.KB, path string, log *slog.Logger) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var n int
	switch {
	case strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle"):
		n, err = kb.ParseTurtle(f)
	case strings.HasSuffix(path, ".snap"):
		n, err = kb.ReadSnapshot(f)
	default:
		n, err = kb.ParseNTriples(f)
	}
	if err != nil {
		return err
	}
	log.Info("loaded knowledge base", "triples", n, "path", path)
	return nil
}

func readTable(f *os.File, name string) (*katara.Table, error) {
	return readCSV(f, name)
}
