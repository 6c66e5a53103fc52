package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture returns an *os.File run() can write to plus a closure reading
// back what was written (run takes *os.File, not io.Writer).
func capture(t *testing.T) (*os.File, func() string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "capture-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, func() string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

// TestRunRequiresFlags: -addr and -in are mandatory; exit 2 with a usage
// message naming them.
func TestRunRequiresFlags(t *testing.T) {
	stdout, _ := capture(t)
	stderr, errText := capture(t)
	if code := run(nil, stdout, stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errText())
	}
	if !strings.Contains(errText(), "-addr and -in are required") {
		t.Fatalf("stderr does not name the required flags: %q", errText())
	}
}

// TestRunRejectsBadParams: job parameters go through the shared
// jobs.Params validator, and burst sizing must be positive.
func TestRunRejectsBadParams(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "-3"},
		{"-jobs", "0"},
		{"-concurrency", "0"},
	} {
		args := append([]string{"-addr", "127.0.0.1:1", "-in", "x.csv"}, bad...)
		stdout, _ := capture(t)
		stderr, errText := capture(t)
		if code := run(args, stdout, stderr); code != 2 {
			t.Fatalf("run(%v) = %d, want 2 (stderr %q)", bad, code, errText())
		}
	}
}

// TestRunMissingInput: a nonexistent table file is a runtime error (exit
// 1) caught before any HTTP traffic.
func TestRunMissingInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such.csv")
	stdout, _ := capture(t)
	stderr, errText := capture(t)
	code := run([]string{"-addr", "127.0.0.1:1", "-in", missing}, stdout, stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, errText())
	}
	if !strings.Contains(errText(), "no-such.csv") {
		t.Fatalf("stderr does not name the missing file: %q", errText())
	}
}
