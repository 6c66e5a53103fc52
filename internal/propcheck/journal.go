// Invariant: journal replay ≡ fresh run. A cleaning job interrupted by a
// daemon crash and re-run from the replayed journal must produce a result
// document byte-identical to the same job run uninterrupted — and once
// terminal, further restarts must serve that document verbatim without ever
// re-executing the pipeline. This is the jobs-layer extension of the
// differential matrix: crash/replay joins workers/faults/telemetry in
// the list of things that may never change a report.
package propcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"katara"
	"katara/internal/jobs"
	"katara/internal/telemetry"
)

// checkJournalReplay runs the scenario through three job managers: an
// uninterrupted journal-less oracle, a journaled boot that crashes mid-run
// and is replayed into a second boot, and a third boot that must serve the
// terminal result without re-running. All three result documents must be
// byte-identical.
func checkJournalReplay(sc *Scenario) error {
	runFn := func(context.Context, *katara.KB, *katara.Table, jobs.Params, *telemetry.Pipeline) (*katara.Report, error) {
		rep, _, err := sc.Run(RunConfig{Workers: 1})
		return rep, err
	}
	wait := func(m *jobs.Manager, id string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		return m.Wait(ctx, id)
	}
	resultJSON := func(m *jobs.Manager, id string) ([]byte, error) {
		doc, state, ok, err := m.Result(id)
		if err != nil || !ok {
			return nil, fmt.Errorf("result %s: state=%s ok=%v err=%v", id, state, ok, err)
		}
		return json.Marshal(doc)
	}

	// Oracle: the crash-free run.
	m0 := jobs.NewManager(jobs.Config{Run: runFn, MaxConcurrent: 1})
	id, err := m0.Submit(sc.Dirty, jobs.Params{})
	if err != nil {
		return fmt.Errorf("oracle submit: %w", err)
	}
	if err := wait(m0, id); err != nil {
		return fmt.Errorf("oracle wait: %w", err)
	}
	oracle, err := resultJSON(m0, id)
	if err != nil {
		return fmt.Errorf("oracle %w", err)
	}
	m0.Close()

	// Boot 1: journaled, crashes while the job is mid-run. The journal is
	// closed first — after that instant nothing reaches disk, exactly like a
	// SIGKILL — and only then is the blocked job released so the abandoned
	// manager's goroutines can exit.
	dir, err := os.MkdirTemp("", "propcheck-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j1, rep1, err := jobs.OpenJournal(dir)
	if err != nil {
		return fmt.Errorf("journal boot 1: %w", err)
	}
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	blockRun := func(ctx context.Context, _ *katara.KB, _ *katara.Table, _ jobs.Params, _ *telemetry.Pipeline) (*katara.Report, error) {
		started <- struct{}{}
		<-block
		return nil, errors.New("crashed")
	}
	m1 := jobs.NewManager(jobs.Config{Run: blockRun, MaxConcurrent: 1, Journal: j1, Replay: rep1})
	id1, err := m1.Submit(sc.Dirty, jobs.Params{})
	if err != nil {
		return fmt.Errorf("boot-1 submit: %w", err)
	}
	if id1 != id {
		return fmt.Errorf("boot-1 ID %s != oracle ID %s", id1, id)
	}
	<-started
	if err := j1.Close(); err != nil {
		return fmt.Errorf("crash (journal close): %w", err)
	}
	close(block)

	// Boot 2: replay re-queues the interrupted job; the re-run must match
	// the oracle byte-for-byte.
	j2, rep2, err := jobs.OpenJournal(dir)
	if err != nil {
		return fmt.Errorf("journal boot 2: %w", err)
	}
	m2 := jobs.NewManager(jobs.Config{Run: runFn, MaxConcurrent: 1, Journal: j2, Replay: rep2})
	if rec := m2.Recovery(); rec.Requeued != 1 {
		return fmt.Errorf("boot-2 recovery = %+v, want 1 requeued", rec)
	}
	if err := wait(m2, id1); err != nil {
		return fmt.Errorf("boot-2 wait: %w", err)
	}
	replayed, err := resultJSON(m2, id1)
	if err != nil {
		return fmt.Errorf("boot-2 %w", err)
	}
	if !bytes.Equal(oracle, replayed) {
		return fmt.Errorf("replayed run differs from crash-free oracle:\noracle  %s\nreplay  %s", oracle, replayed)
	}
	m2.Close()
	if err := j2.Close(); err != nil {
		return fmt.Errorf("boot-2 journal close: %w", err)
	}

	// Boot 3: the job is terminal in the journal; it must come back
	// retrievable and byte-identical without the pipeline running again.
	j3, rep3, err := jobs.OpenJournal(dir)
	if err != nil {
		return fmt.Errorf("journal boot 3: %w", err)
	}
	defer j3.Close()
	reran := errors.New("terminal job re-ran after replay")
	m3 := jobs.NewManager(jobs.Config{Run: func(context.Context, *katara.KB, *katara.Table, jobs.Params, *telemetry.Pipeline) (*katara.Report, error) {
		return nil, reran
	}, MaxConcurrent: 1, Journal: j3, Replay: rep3})
	defer m3.Close()
	if rec := m3.Recovery(); rec.Terminal != 1 || rec.Requeued != 0 {
		return fmt.Errorf("boot-3 recovery = %+v, want 1 terminal", rec)
	}
	recovered, err := resultJSON(m3, id1)
	if err != nil {
		return fmt.Errorf("boot-3 %w", err)
	}
	if !bytes.Equal(replayed, recovered) {
		return fmt.Errorf("terminal result changed across restart:\nbefore %s\nafter  %s", replayed, recovered)
	}
	return nil
}
