package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"katara/internal/table"
	"katara/internal/workload"
	"katara/internal/world"
)

// writeEnv materialises a small cleanable environment — an N-Triples KB and
// a dirty CSV — into dir, returning both paths.
func writeEnv(t *testing.T, dir string) (kbPath, csvPath string) {
	t.Helper()
	const seed = 7
	w := world.New(seed, world.Config{
		Persons: 120, Players: 50, Clubs: 10, Universities: 40, Films: 20, Books: 20,
	})
	kb := workload.DBpediaLike(w, seed)
	spec := workload.PersonTable(w, seed, 80)
	dirty := spec.Table.Clone()
	rng := rand.New(rand.NewSource(seed))
	table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, rng)

	kbPath = filepath.Join(dir, "kb.nt")
	kf, err := os.Create(kbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.Store.WriteNTriples(kf); err != nil {
		t.Fatal(err)
	}
	if err := kf.Close(); err != nil {
		t.Fatal(err)
	}
	csvPath = filepath.Join(dir, "dirty.csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dirty.WriteCSV(cf); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	return kbPath, csvPath
}

// checkJournal asserts the trace file is a complete, untruncated JSONL
// span journal: every line parses as JSON, and the root "clean" span was
// both opened and closed.
func checkJournal(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("journal missing: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lines, sawClean := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines++
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %d truncated or malformed: %v\n%s", lines, err, line)
		}
		if name, _ := rec["name"].(string); name == "clean" {
			sawClean = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("journal is empty — flush never ran")
	}
	if !sawClean {
		t.Fatal("journal has no root clean span")
	}
}

// TestRunErrorPathFlushesJournal is the regression test for the os.Exit
// bugfix: an error AFTER the run (here: -out pointing into a directory
// that does not exist) used to fatal-exit past the deferred journal flush,
// truncating the -trace output. The journal must be complete even though
// the command failed.
func TestRunErrorPathFlushesJournal(t *testing.T) {
	dir := t.TempDir()
	kbPath, csvPath := writeEnv(t, dir)
	tracePath := filepath.Join(dir, "trace.jsonl")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-kb", kbPath, "-in", csvPath,
		"-trace", tracePath,
		"-out", filepath.Join(dir, "no-such-dir", "repaired.csv"),
	}, strings.NewReader(""), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d (stderr %q), want 1", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no-such-dir") {
		t.Fatalf("stderr does not name the failing path: %q", stderr.String())
	}
	checkJournal(t, tracePath)
}

// TestRunSuccessPathFlushesJournal: the happy path still writes the same
// complete journal and exits 0.
func TestRunSuccessPathFlushesJournal(t *testing.T) {
	dir := t.TempDir()
	kbPath, csvPath := writeEnv(t, dir)
	tracePath := filepath.Join(dir, "trace.jsonl")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-kb", kbPath, "-in", csvPath, "-trace", tracePath, "-workers", "4",
	}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "span journal") {
		t.Fatalf("stdout missing journal report: %q", stdout.String())
	}
	checkJournal(t, tracePath)
}

// TestRunRejectsBadParams: the shared validator turns bad numeric flags
// into a usage error (exit 2) that names every offending knob at once.
func TestRunRejectsBadParams(t *testing.T) {
	dir := t.TempDir()
	kbPath, csvPath := writeEnv(t, dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-kb", kbPath, "-in", csvPath,
		"-workers", "-9", "-budget", "-1", "-deadline", "-5s", "-k", "-2",
	}, strings.NewReader(""), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, stderr.String())
	}
	for _, knob := range []string{"workers", "budget", "deadline", "repair_k"} {
		if !strings.Contains(stderr.String(), knob) {
			t.Fatalf("stderr does not mention %s: %q", knob, stderr.String())
		}
	}
	// And nothing ran: no KB-loading output.
	if strings.Contains(stdout.String(), "loaded") {
		t.Fatal("pipeline ran despite invalid parameters")
	}
}

// runProv runs the CLI with -provenance into dir and returns the journal
// bytes and captured stdout.
func runProv(t *testing.T, dir, kbPath, csvPath, name string, extra ...string) ([]byte, string) {
	t.Helper()
	provPath := filepath.Join(dir, name)
	args := append([]string{
		"-kb", kbPath, "-in", csvPath, "-workers", "3", "-provenance", provPath,
	}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	data, err := os.ReadFile(provPath)
	if err != nil {
		t.Fatalf("provenance journal missing: %v", err)
	}
	return data, stdout.String()
}

// TestRunProvenanceJournal: -provenance writes a JSONL lineage journal —
// every line valid JSON, lint-clean — and two runs over the same inputs
// produce byte-identical journals (decision provenance is deterministic).
func TestRunProvenanceJournal(t *testing.T) {
	dir := t.TempDir()
	kbPath, csvPath := writeEnv(t, dir)

	first, out := runProv(t, dir, kbPath, csvPath, "prov1.jsonl")
	if !strings.Contains(out, "provenance journal written") {
		t.Fatalf("stdout missing provenance confirmation: %q", out)
	}
	if len(first) == 0 {
		t.Fatal("provenance journal is empty")
	}
	for i, line := range bytes.Split(bytes.TrimRight(first, "\n"), []byte("\n")) {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("journal line %d is not JSON: %v\n%s", i+1, err, line)
		}
	}

	second, _ := runProv(t, dir, kbPath, csvPath, "prov2.jsonl")
	if !bytes.Equal(first, second) {
		t.Fatal("same inputs produced different provenance journals")
	}
}

// TestRunExplainCell: -explain prints a human-readable evidence chain for
// the requested cell after the run.
func TestRunExplainCell(t *testing.T) {
	dir := t.TempDir()
	kbPath, csvPath := writeEnv(t, dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-kb", kbPath, "-in", csvPath, "-explain", "0,1",
	}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cell (row 0, col 1)") {
		t.Fatalf("stdout missing explanation header: %q", stdout.String())
	}
	if !strings.Contains(stdout.String(), "verdict:") {
		t.Fatalf("explanation has no verdict: %q", stdout.String())
	}
}

// TestRunRejectsBadExplain: a malformed -explain argument is a usage error.
func TestRunRejectsBadExplain(t *testing.T) {
	dir := t.TempDir()
	kbPath, csvPath := writeEnv(t, dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-kb", kbPath, "-in", csvPath, "-explain", "banana",
	}, strings.NewReader(""), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-explain") {
		t.Fatalf("stderr does not explain the -explain format: %q", stderr.String())
	}
}

// TestRunRejectsBadLogLevel: an unknown -log-level is a usage error.
func TestRunRejectsBadLogLevel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-log-level", "chatty"}, strings.NewReader(""), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "chatty") {
		t.Fatalf("stderr does not name the bad level: %q", stderr.String())
	}
}
