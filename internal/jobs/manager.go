package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"katara"
	"katara/internal/fanout"
	"katara/internal/telemetry"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity — the backpressure signal, not an internal failure.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrDraining rejects submissions while the daemon is draining for a
	// graceful shutdown — clients should retry against the restarted
	// daemon (the HTTP layer maps this to 503 + Retry-After).
	ErrDraining = errors.New("jobs: draining for shutdown")
	// ErrUnknownJob reports a job ID the manager has never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrNotReady reports an explain request against a job that has not
	// reached a terminal state yet.
	ErrNotReady = errors.New("jobs: job not finished")
	// ErrNoProvenance reports an explain request for a job whose evidence
	// lineage is not in memory: journal-recovered jobs (only the audit
	// summary in their result document survives restarts) and jobs that
	// failed before producing a report.
	ErrNoProvenance = errors.New("jobs: no provenance retained for this job")
	// ErrParentNotDone rejects an append against a job that has not finished
	// successfully — increments extend a completed report, never a queued,
	// running, failed or cancelled one (HTTP 409).
	ErrParentNotDone = errors.New("jobs: parent job is not done")
	// ErrParentExtended rejects a second append against the same parent:
	// chains are linear — extend the tip, not an interior job (HTTP 409).
	ErrParentExtended = errors.New("jobs: parent job already extended; append to the chain tip")
)

// poisonedError marks a job quarantined by crash-loop detection.
const poisonedError = "poisoned: job was running across two daemon crashes"

// Job is one submitted cleaning run. All mutable fields are guarded by the
// owning Manager's mutex; callers observe jobs through Manager.Status and
// Manager.Result.
type Job struct {
	id string
	// table is the parsed table for root jobs that will run in this boot —
	// or, for journal-recovered terminal root jobs, the replayed submission
	// kept so an append chain can re-execute from its root. It is nil for
	// append jobs (their rows live in delta) and for recovered roots whose
	// submission no longer parses; status/result paths always use
	// tableName/rows instead.
	table     *katara.Table
	tableName string
	columns   []string
	rows      int
	params    Params
	// parent links an append increment to the job it extends; delta holds
	// its appended rows. extendedBy points the other way and enforces the
	// linear-chain rule: a job already extended rejects further appends.
	parent     string
	delta      [][]string
	extendedBy string
	// pipe is the job's private telemetry pipeline: progress reads it live,
	// /metrics merges it (exactly once after the job finishes, via the
	// manager's aggregate).
	pipe   *telemetry.Pipeline
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state — the poll-free
	// wait used by tests and the load driver.
	done chan struct{}

	state           State
	report          *katara.Report
	err             error
	stack           string // captured panic stack, if the job panicked
	cancelRequested bool
	absorbed        bool
	// resultDoc pins the served result document. For journal-recovered
	// terminal jobs it is the replayed document (byte-identical to what the
	// pre-crash daemon served); for jobs finished in this boot it caches
	// the deterministic projection built at finalize time.
	resultDoc *ResultDoc
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// RunFunc executes one job and returns its report. The manager cancels ctx
// on job cancel and daemon shutdown; pipe is the job's telemetry pipeline
// and must be handed to the run via katara.Options.Pipeline (the default
// runner does). Tests inject their own RunFunc to script slow, failing or
// blocking jobs.
type RunFunc func(ctx context.Context, kb *katara.KB, tbl *katara.Table, p Params, pipe *telemetry.Pipeline) (*katara.Report, error)

// Config configures a Manager.
type Config struct {
	// KB is the pristine knowledge base. Annotation enrichment mutates the
	// store, and jobs must not observe each other's enrichment (or corrupt
	// each other's repairs), so every job runs against its own copy. The
	// default runner re-interns KB once, on the first job, warms that copy's
	// hierarchy closures, and gives each job a copy-on-write share of it
	// (rdf.Store.CloneExact): a job copies only the index entries its
	// enrichment writes, and its KB statistics are the copy's snapshot's
	// tables (kbstats.New), which compute each count, coherence score and
	// maximum once for every job. KB itself is never written, and the
	// manager drops it once the copy exists.
	KB *katara.KB
	// MaxConcurrent bounds jobs running at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds jobs waiting to run (default 64); submissions beyond
	// it fail fast with ErrQueueFull.
	MaxQueue int
	// Run overrides the job runner (tests); nil uses the real pipeline.
	Run RunFunc
	// Journal, when non-nil, records every lifecycle transition durably: a
	// submission is fsynced before it is acknowledged, so an accepted job
	// survives any crash.
	Journal *Journal
	// Replay, when non-nil, is journal state from a previous boot: terminal
	// jobs are restored retrievable, queued/running jobs are re-queued, and
	// jobs that were running across two consecutive crashes are quarantined
	// as failed (poisoned) instead of re-entering the crash loop.
	Replay *Replay
}

// maxSessions bounds the incremental sessions retained for the append fast
// path. A chain whose session was evicted — or lost to a restart — still
// appends correctly: the manager re-executes the chain from its root
// submission, which is also the crash-replay path.
const maxSessions = 4

// RecoveryStats summarizes what journal replay did at boot.
type RecoveryStats struct {
	// Terminal counts jobs restored already-finished (results retrievable).
	Terminal int
	// Requeued counts jobs re-queued for execution (queued or interrupted
	// mid-run at crash time).
	Requeued int
	// Poisoned counts jobs quarantined by crash-loop detection.
	Poisoned int
	// Boots counts prior daemon starts seen in the journal.
	Boots int
	// TruncatedBytes counts journal bytes dropped from torn tails.
	TruncatedBytes int64
}

// Manager owns the job table, the bounded queue and the worker pool, and
// keeps the monotone metrics aggregate the /metrics endpoint serves.
type Manager struct {
	cfg      Config
	journal  *Journal
	queue    chan *Job
	maxQueue int
	wg       sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	nextID int
	closed bool
	// draining stops admission while letting running jobs finish; queued
	// jobs are deliberately left unexecuted (their journal entries have no
	// terminal record, so the next boot re-queues them).
	draining bool
	// pendingEnq reserves queue slots for submissions that have been
	// admitted (and journaled) but not yet placed on the channel, keeping
	// the MaxQueue bound exact without holding the mutex across the fsync.
	pendingEnq int
	// aggregate absorbs each finished job's pipeline exactly once, so a
	// /metrics scrape = aggregate + still-live pipelines is monotone: a
	// job's counters move from the live term to the absorbed term without
	// ever being counted twice or dropped.
	aggregate *telemetry.Pipeline
	recovery  RecoveryStats
	// realRunner marks the default in-process pipeline runner: only then can
	// the manager retain a finished job's incremental session for the append
	// fast path (an injected RunFunc yields no cleaner to retain).
	realRunner bool
	// retained maps a chain tip's job ID to the live cleaner whose session
	// holds that chain's cumulative state; retainedOrder is its LRU list.
	retained      map[string]*katara.Cleaner
	retainedOrder []string
	// pristine is the default runner's one re-interned copy of Config.KB,
	// built by the first job (pristineOnce); each job's cleaner starts from
	// a CloneExact share of it. Atomic because /metrics reads its label
	// memo while jobs may be building it.
	pristine     atomic.Pointer[katara.KB]
	pristineOnce sync.Once

	submitted, completed, failed, cancelled, rejected int64
	panics, requeued, poisoned, appended              int64
	running                                           int64
}

// NewManager replays any recovered journal state and starts the worker pool.
func NewManager(cfg Config) *Manager {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	realRunner := cfg.Run == nil
	m := &Manager{
		cfg:        cfg,
		journal:    cfg.Journal,
		maxQueue:   cfg.MaxQueue,
		jobs:       make(map[string]*Job),
		aggregate:  telemetry.New(),
		realRunner: realRunner,
		retained:   make(map[string]*katara.Cleaner),
	}
	requeue, endDocs := m.recover(cfg.Replay)
	// The channel is sized past MaxQueue when recovery re-queues more jobs
	// than the admission bound; Submit enforces MaxQueue itself, so the
	// extra capacity only ever holds recovered work.
	m.queue = make(chan *Job, cfg.MaxQueue+len(requeue))
	for _, job := range requeue {
		m.queue <- job
	}
	// Journal quarantine decisions so the next boot sees them terminal
	// (one batched sync covers them all).
	for _, doc := range endDocs {
		_ = m.journal.recordEndAsync(doc)
	}
	_ = m.journal.Sync()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// recover rebuilds the job table from replayed journal state, returning the
// jobs to re-queue and the terminal records to journal (quarantines).
func (m *Manager) recover(rep *Replay) (requeue []*Job, endDocs []ResultDoc) {
	if rep == nil {
		return nil, nil
	}
	m.nextID = rep.MaxID
	m.recovery.Boots = rep.Boots
	m.recovery.TruncatedBytes = rep.TruncatedBytes
	for i := range rep.Jobs {
		rj := &rep.Jobs[i]
		job := &Job{
			id:        rj.ID,
			parent:    rj.Parent,
			tableName: rj.Table.Name,
			columns:   rj.Table.Columns,
			rows:      len(rj.Table.Rows),
			params:    rj.Params,
			pipe:      telemetry.New(),
			done:      make(chan struct{}),
			submitted: time.Now(),
		}
		if job.tableName == "" {
			job.tableName = "table"
		}
		quarantine := func(doc ResultDoc) {
			job.state = doc.State
			job.err = errors.New(doc.Error)
			job.resultDoc = &doc
			job.absorbed = true
			close(job.done)
			endDocs = append(endDocs, doc)
		}
		switch {
		case rj.State.Terminal():
			doc := ResultDoc{ID: rj.ID, State: rj.State, Error: rj.Error, Stack: rj.Stack, Report: rj.Report, Audit: rj.Audit}
			job.state = rj.State
			job.resultDoc = &doc
			if rj.Error != "" {
				job.err = errors.New(rj.Error)
			}
			job.absorbed = true
			close(job.done)
			m.recovery.Terminal++
			// Keep the replayed rows in runnable form: a root's table (or an
			// append's delta) is the chain history a later append re-executes.
			if rj.Parent == "" {
				job.table, _ = rj.Table.Table()
			} else {
				job.delta = rj.Table.Rows
			}
		case rj.Starts >= 2:
			// The job was running when two consecutive boots died: break
			// the crash loop instead of re-queuing it a third time.
			quarantine(ResultDoc{ID: rj.ID, State: StateFailed, Error: poisonedError})
			m.poisoned++
			m.recovery.Poisoned++
		default:
			if rj.Parent == "" {
				tbl, err := rj.Table.Table()
				if err != nil {
					// A submit record that replays but no longer parses —
					// quarantine rather than crash or silently drop.
					quarantine(ResultDoc{ID: rj.ID, State: StateFailed, Error: "journal replay: " + err.Error()})
					m.recovery.Poisoned++
					break
				}
				job.table = tbl
			} else {
				job.delta = rj.Table.Rows
			}
			ctx, cancel := context.WithCancel(context.Background())
			job.ctx = ctx
			job.cancel = cancel
			job.state = StateQueued
			requeue = append(requeue, job)
			m.submitted++
			m.requeued++
			m.recovery.Requeued++
		}
		m.jobs[job.id] = job
		m.order = append(m.order, job.id)
	}
	// Rebuild the linear-chain bookkeeping so a restarted daemon keeps
	// rejecting appends against interior jobs.
	for _, id := range m.order {
		job := m.jobs[id]
		if job.parent != "" {
			if parent := m.jobs[job.parent]; parent != nil {
				parent.extendedBy = job.id
			}
		}
	}
	return requeue, endDocs
}

// Recovery returns what journal replay did at boot (zero-valued without a
// journal).
func (m *Manager) Recovery() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// buildCleaner assembles the real per-job cleaner: a copy-on-write share of
// kb (per-job enrichment isolation; the job copies only the index entries
// it writes, and its statistics come from kb's snapshot, built once for all
// jobs), provenance recording (the audit layer is part of the service
// contract), and an incremental session so a later append can extend the
// run instead of re-cleaning everything.
func buildCleaner(kb *katara.KB, p Params, pipe *telemetry.Pipeline) *katara.Cleaner {
	opts := p.Options()
	opts.Pipeline = pipe
	opts.Provenance = katara.NewProvenance()
	opts.Incremental = true
	if p.FaultRate > 0 {
		opts.Transport = katara.NewFaultInjector(katara.FaultConfig{
			Seed:          1,
			AbandonRate:   p.FaultRate * 0.5,
			TransientRate: p.FaultRate * 0.25,
			SpamRate:      p.FaultRate * 0.25,
		})
	}
	return katara.NewCleaner(kb.CloneExact(), katara.TrustingCrowd(), opts)
}

// pristineKB returns the KB every job's cleaner shares, building it on first
// use so daemon boot does no extra work (see newPristine). Config.KB is
// dropped afterwards, so an idle daemon holds one copy.
func (m *Manager) pristineKB() *katara.KB {
	m.pristineOnce.Do(func() {
		m.pristine.Store(newPristine(m.cfg.KB))
		m.cfg.KB = nil
	})
	return m.pristine.Load()
}

// newPristine builds the copy of kb that jobs share. It is re-interned
// (Clone, not CloneExact) because result documents depend on term IDs:
// Clone assigns them exactly as the per-job Clone of Config.KB that the
// shares replace, so results stay byte-identical across versions and
// journal replays. Its hierarchy closures are warmed here, once, and every
// share carries them; its label lookups are memoised from the first share
// on, once for every job (rdf.Store.MatchLabelNorm).
func newPristine(kb *katara.KB) *katara.KB {
	p := kb.Clone()
	p.WarmClosures()
	return p
}

// Submit validates, registers, durably journals and enqueues a job. It
// fails fast with a *ValidationError, ErrQueueFull, ErrDraining or
// ErrClosed; it never blocks on a full queue. When it returns an ID the
// submission is on stable storage: the job survives any subsequent crash.
func (m *Manager) Submit(tbl *katara.Table, p Params) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	if tbl == nil || tbl.NumRows() == 0 {
		return "", &ValidationError{Problems: []string{"table must have at least one row"}}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	if m.draining {
		m.mu.Unlock()
		return "", ErrDraining
	}
	if len(m.queue)+m.pendingEnq >= m.maxQueue {
		m.rejected++
		m.mu.Unlock()
		return "", ErrQueueFull
	}
	// Reserve a queue slot and the ID, then journal outside the lock: the
	// fsync must not serialize every other manager operation, and the
	// reservation keeps the MaxQueue bound exact while we're off-lock.
	m.pendingEnq++
	m.nextID++
	id := fmt.Sprintf("j%d", m.nextID)
	m.mu.Unlock()

	// Durable before acknowledged: the submit record is fsynced (group
	// commit amortizes concurrent submissions into one sync) before the
	// client ever learns the ID.
	if err := m.journal.RecordSubmit(id, TableDoc{Name: tbl.Name, Columns: tbl.Columns, Rows: tbl.Rows}, p); err != nil {
		m.mu.Lock()
		m.pendingEnq--
		m.mu.Unlock()
		return "", fmt.Errorf("jobs: journal submit: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		id:        id,
		table:     tbl,
		tableName: tbl.Name,
		columns:   tbl.Columns,
		rows:      tbl.NumRows(),
		params:    p,
		pipe:      telemetry.New(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}

	m.mu.Lock()
	m.pendingEnq--
	if m.closed || m.draining {
		// Shut down between journaling and enqueueing: void the journaled
		// submission so the next boot doesn't resurrect a job the client
		// was told failed.
		err := ErrClosed
		if !m.closed {
			err = ErrDraining
		}
		m.mu.Unlock()
		cancel()
		_ = m.journal.RecordEnd(ResultDoc{ID: id, State: StateCancelled, Error: err.Error()})
		return "", err
	}
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.submitted++
	// Non-blocking by construction: the reservation guaranteed a slot, and
	// the channel is never smaller than MaxQueue.
	m.queue <- job
	m.mu.Unlock()
	return id, nil
}

// Append validates, registers, durably journals and enqueues an incremental
// extension of a finished job: the delta rows are cleaned against the
// parent's cumulative session (or the chain is re-executed from its root
// when the session is gone), and the new job's result is the cumulative
// report over every row of the chain. The parent must be done and
// un-extended — chains are linear; extend the tip. Like Submit, a returned
// ID means the increment is on stable storage and survives any crash.
func (m *Manager) Append(parentID string, rows [][]string) (string, error) {
	if len(rows) == 0 {
		return "", &ValidationError{Problems: []string{"append needs at least one row"}}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	if m.draining {
		m.mu.Unlock()
		return "", ErrDraining
	}
	parent, ok := m.jobs[parentID]
	if !ok {
		m.mu.Unlock()
		return "", ErrUnknownJob
	}
	if parent.state != StateDone {
		m.mu.Unlock()
		return "", fmt.Errorf("%w (%s is %s)", ErrParentNotDone, parentID, parent.state)
	}
	if parent.extendedBy != "" {
		m.mu.Unlock()
		return "", fmt.Errorf("%w (%s extended by %s)", ErrParentExtended, parentID, parent.extendedBy)
	}
	for i, row := range rows {
		if len(row) != len(parent.columns) {
			m.mu.Unlock()
			return "", &ValidationError{Problems: []string{
				fmt.Sprintf("append row %d has %d cells, want %d", i, len(row), len(parent.columns)),
			}}
		}
	}
	if len(m.queue)+m.pendingEnq >= m.maxQueue {
		m.rejected++
		m.mu.Unlock()
		return "", ErrQueueFull
	}
	// Reserve the queue slot, the ID and the chain link before unlocking, so
	// a racing append on the same parent conflicts instead of forking the
	// chain; all three are rolled back if the journal or shutdown interferes.
	m.pendingEnq++
	m.nextID++
	id := fmt.Sprintf("j%d", m.nextID)
	parent.extendedBy = id
	p := parent.params
	name, columns := parent.tableName, parent.columns
	m.mu.Unlock()

	rollback := func() {
		m.mu.Lock()
		m.pendingEnq--
		if parent.extendedBy == id {
			parent.extendedBy = ""
		}
		m.mu.Unlock()
	}
	// Durable before acknowledged, exactly like Submit.
	if err := m.journal.RecordAppend(id, parentID, TableDoc{Name: name, Columns: columns, Rows: rows}); err != nil {
		rollback()
		return "", fmt.Errorf("jobs: journal append: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		id:        id,
		parent:    parentID,
		delta:     rows,
		tableName: name,
		columns:   columns,
		rows:      len(rows),
		params:    p,
		pipe:      telemetry.New(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}

	m.mu.Lock()
	m.pendingEnq--
	if m.closed || m.draining {
		err := ErrClosed
		if !m.closed {
			err = ErrDraining
		}
		if parent.extendedBy == id {
			parent.extendedBy = ""
		}
		m.mu.Unlock()
		cancel()
		_ = m.journal.RecordEnd(ResultDoc{ID: id, State: StateCancelled, Error: err.Error()})
		return "", err
	}
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.submitted++
	m.appended++
	m.queue <- job
	m.mu.Unlock()
	return id, nil
}

// worker drains the queue until Close closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.mu.Lock()
		if job.state.Terminal() {
			// Cancelled while still queued; already finalized.
			m.mu.Unlock()
			continue
		}
		if m.draining {
			// Leave the job queued: its journal entry has no terminal
			// record, so the next boot re-queues and runs it.
			m.mu.Unlock()
			continue
		}
		job.state = StateRunning
		job.started = time.Now()
		m.running++
		m.mu.Unlock()
		// Unsynced on purpose: losing a start record to a crash merely
		// replays the job as queued, which is exactly what re-queueing
		// does anyway.
		_ = m.journal.RecordStart(job.id)

		rep, err := m.runJob(job)

		m.mu.Lock()
		m.running--
		job.report = rep
		job.err = err
		switch {
		case job.cancelRequested:
			job.state = StateCancelled
			m.cancelled++
		case err != nil:
			job.state = StateFailed
			m.failed++
		default:
			job.state = StateDone
			m.completed++
		}
		m.absorbLocked(job)
		job.finished = time.Now()
		doc := m.buildResultLocked(job)
		job.resultDoc = &doc
		job.cancel()
		close(job.done)
		terminal := job.state
		m.mu.Unlock()
		if terminal != StateDone {
			// A failed or cancelled run may have left its session dirty;
			// appends against it are rejected anyway (parent must be done).
			m.dropRetained(job.id)
		}
		// The terminal record is synced so the result survives a restart;
		// losing the race against a crash only means the job re-runs, and
		// results are deterministic.
		_ = m.journal.RecordEnd(doc)
	}
}

// runJob executes the job with panic isolation: a panic anywhere in the run
// — including one re-raised from a fan-out goroutine — becomes a failed job
// with the stack preserved in its result, never a dead daemon.
func (m *Manager) runJob(job *Job) (rep *katara.Report, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := string(debug.Stack())
		if pe, ok := r.(*fanout.PanicError); ok {
			// The fan-out barrier already captured the original goroutine's
			// stack; prefer it over this recovery frame's.
			stack = pe.Stack
		}
		m.mu.Lock()
		m.panics++
		job.stack = stack
		m.mu.Unlock()
		rep = nil
		err = fmt.Errorf("panic: %v", r)
	}()
	return m.execute(job)
}

// execute dispatches one job to its runner. Root jobs run the configured
// RunFunc — with the default in-process runner, the cleaner is retained
// afterwards so the chain's next append can reuse its live session. Append
// jobs extend the retained session when it survives, and otherwise re-execute
// the whole chain from the root submission — the same path a journal-replayed
// append takes after a crash, so the two produce byte-identical results.
func (m *Manager) execute(job *Job) (*katara.Report, error) {
	if job.parent == "" {
		if !m.realRunner {
			return m.cfg.Run(job.ctx, m.cfg.KB, job.table, job.params, job.pipe)
		}
		cl := buildCleaner(m.pristineKB(), job.params, job.pipe)
		rep, err := cl.CleanContext(job.ctx, job.table)
		if err == nil {
			m.retain(job.id, cl)
		}
		return rep, err
	}
	if cl := m.takeRetained(job.parent); cl != nil {
		// Fast path: the parent's session is live — only the delta is
		// annotated and repaired.
		cl.SetPipeline(job.pipe)
		rep, err := cl.AppendContext(job.ctx, job.delta)
		if err == nil {
			m.retain(job.id, cl)
		}
		return rep, err
	}
	// Slow path: session evicted or lost to a restart. Re-execute the chain —
	// root Clean, then every delta in order — against a fresh KB share.
	root, deltas, err := m.chain(job)
	if err != nil {
		return nil, err
	}
	cl := buildCleaner(m.pristineKB(), job.params, job.pipe)
	rep, err := cl.CleanContext(job.ctx, root)
	for _, delta := range deltas {
		if err != nil {
			return nil, err
		}
		rep, err = cl.AppendContext(job.ctx, delta)
	}
	if err == nil {
		m.retain(job.id, cl)
	}
	return rep, err
}

// chain resolves an append job's full history: the root submission's table
// (cloned — the incremental session mutates its table in place) and every
// delta from the root to this job, in append order.
func (m *Manager) chain(job *Job) (*katara.Table, [][][]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var deltas [][][]string
	cur := job
	for cur.parent != "" {
		deltas = append(deltas, cur.delta)
		parent, ok := m.jobs[cur.parent]
		if !ok {
			return nil, nil, fmt.Errorf("jobs: append chain broken: %w (%s)", ErrUnknownJob, cur.parent)
		}
		cur = parent
	}
	if cur.table == nil {
		return nil, nil, fmt.Errorf("jobs: append chain root %s has no runnable table", cur.id)
	}
	for i, j := 0, len(deltas)-1; i < j; i, j = i+1, j-1 {
		deltas[i], deltas[j] = deltas[j], deltas[i]
	}
	return cur.table.Clone(), deltas, nil
}

// retain parks a finished chain tip's cleaner for the append fast path,
// evicting the least-recently-retained session past the cap.
func (m *Manager) retain(id string, cl *katara.Cleaner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.retained[id]; !ok {
		m.retainedOrder = append(m.retainedOrder, id)
	}
	m.retained[id] = cl
	for len(m.retainedOrder) > maxSessions {
		evict := m.retainedOrder[0]
		m.retainedOrder = m.retainedOrder[1:]
		delete(m.retained, evict)
	}
}

// takeRetained claims (and removes) the retained session for id. Ownership
// transfers to the caller: the linear-chain rule means at most one append
// job ever claims a given tip.
func (m *Manager) takeRetained(id string) *katara.Cleaner {
	m.mu.Lock()
	defer m.mu.Unlock()
	cl, ok := m.retained[id]
	if !ok {
		return nil
	}
	delete(m.retained, id)
	for i, rid := range m.retainedOrder {
		if rid == id {
			m.retainedOrder = append(m.retainedOrder[:i], m.retainedOrder[i+1:]...)
			break
		}
	}
	return cl
}

// dropRetained discards a job's retained session, if any — a failed or
// cancelled job's session may be dirty and must not serve appends.
func (m *Manager) dropRetained(id string) { m.takeRetained(id) }

// absorbLocked folds a finished job's pipeline into the aggregate, exactly
// once. Callers hold m.mu.
func (m *Manager) absorbLocked(job *Job) {
	if job.absorbed {
		return
	}
	job.absorbed = true
	m.aggregate.Merge(job.pipe)
}

// buildResultLocked projects the job's terminal state into its result
// document, reusing the pinned document when one exists (recovered jobs).
// Callers hold m.mu.
func (m *Manager) buildResultLocked(job *Job) ResultDoc {
	if job.resultDoc != nil {
		return *job.resultDoc
	}
	doc := BuildResult(job.id, job.state, job.report)
	if job.err != nil {
		doc.Error = job.err.Error()
	}
	doc.Stack = job.stack
	return doc
}

// Cancel requests cancellation. A queued job is finalized immediately; a
// running job has its context cancelled and finishes as StateCancelled
// (typically with a degraded report — the pipeline honours context
// cancellation by degrading, not aborting). Cancelling a terminal job is a
// harmless no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	if job.state.Terminal() {
		m.mu.Unlock()
		return nil
	}
	job.cancelRequested = true
	job.cancel()
	var doc *ResultDoc
	if job.state == StateQueued {
		job.state = StateCancelled
		m.cancelled++
		m.absorbLocked(job)
		job.finished = time.Now()
		d := m.buildResultLocked(job)
		job.resultDoc = &d
		doc = &d
		close(job.done)
	}
	m.mu.Unlock()
	if doc != nil {
		_ = m.journal.RecordEnd(*doc)
	}
	return nil
}

// StartDraining stops admission: subsequent submissions fail with
// ErrDraining while running jobs continue. Queued jobs are deliberately not
// started — their journal entries stay non-terminal, so a restarted daemon
// re-queues them.
func (m *Manager) StartDraining() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Drain waits for running jobs to finish, up to timeout, and reports
// whether the daemon is fully quiesced. Call StartDraining first. The
// journal is synced either way, so everything that happened is durable.
func (m *Manager) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		running := m.running
		m.mu.Unlock()
		if running == 0 {
			_ = m.journal.Sync()
			return true
		}
		if time.Now().After(deadline) {
			_ = m.journal.Sync()
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// JobStatus is the wire representation of one job's state and live
// progress — the per-job generalization of the single-run /progress
// endpoint.
type JobStatus struct {
	ID string `json:"id"`
	// Parent is set on append increments: the job this one extends.
	Parent string `json:"parent,omitempty"`
	Table  string `json:"table"`
	Rows   int    `json:"rows"`
	State  State  `json:"state"`
	Params Params `json:"params"`
	Error  string `json:"error,omitempty"`

	Progress telemetry.Progress `json:"progress"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// statusLocked builds the wire status. Callers hold m.mu; the pipeline
// reads are atomic, so a running job's counters are safely read live.
func (m *Manager) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:          job.id,
		Parent:      job.parent,
		Table:       job.tableName,
		Rows:        job.rows,
		State:       job.state,
		Params:      job.params,
		SubmittedAt: job.submitted,
	}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	if !job.started.IsZero() {
		t := job.started
		st.StartedAt = &t
	}
	if !job.finished.IsZero() {
		t := job.finished
		st.FinishedAt = &t
	}
	st.Progress = telemetry.Progress{
		Stage:                    job.pipe.CurrentStage(),
		TuplesAnnotated:          job.pipe.Get(telemetry.TuplesAnnotated),
		TuplesTotal:              int64(job.rows),
		CrowdQuestions:           job.pipe.Get(telemetry.CrowdQuestions),
		BudgetQuestionsRemaining: -1,
		Done:                     job.state.Terminal(),
	}
	if b := int64(job.params.Budget); b > 0 {
		rem := b - st.Progress.CrowdQuestions
		if rem < 0 {
			rem = 0
		}
		st.Progress.BudgetQuestionsRemaining = rem
	}
	return st
}

// Status returns one job's status.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return m.statusLocked(job), nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Result returns a terminal job's result document — the exact bytes-stable
// projection the HTTP layer serves, identical across restarts for
// journal-recovered jobs. Non-terminal jobs return ok=false.
func (m *Manager) Result(id string) (doc ResultDoc, state State, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, found := m.jobs[id]
	if !found {
		return ResultDoc{}, "", false, ErrUnknownJob
	}
	if !job.state.Terminal() {
		return ResultDoc{}, job.state, false, nil
	}
	return m.buildResultLocked(job), job.state, true, nil
}

// Explain returns the evidence chain behind cell (row, col) of a finished
// job. The recorder lives only in daemon memory, so journal-recovered jobs
// return ErrNoProvenance — their result document's pinned audit section is
// what survives restarts. Non-terminal jobs return ErrNotReady.
func (m *Manager) Explain(id string, row, col int) (*katara.Explanation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, found := m.jobs[id]
	if !found {
		return nil, ErrUnknownJob
	}
	if !job.state.Terminal() {
		return nil, fmt.Errorf("%w (state %s)", ErrNotReady, job.state)
	}
	if job.report == nil || !job.report.Provenance.Enabled() {
		return nil, ErrNoProvenance
	}
	return job.report.Provenance.Explain(row, col), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) error {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrUnknownJob
	}
	select {
	case <-job.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting submissions, cancels queued and running jobs, and
// waits for the workers to drain. Idempotent. For a graceful shutdown that
// preserves queued jobs for the next boot, use StartDraining + Drain
// instead.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	var docs []ResultDoc
	for _, id := range m.order {
		job := m.jobs[id]
		if job.state.Terminal() {
			continue
		}
		job.cancelRequested = true
		job.cancel()
		if job.state == StateQueued {
			job.state = StateCancelled
			m.cancelled++
			m.absorbLocked(job)
			job.finished = time.Now()
			d := m.buildResultLocked(job)
			job.resultDoc = &d
			docs = append(docs, d)
			close(job.done)
		}
	}
	close(m.queue)
	m.mu.Unlock()
	// One batched sync covers the whole mass-cancel instead of an fsync
	// per job.
	for _, d := range docs {
		_ = m.journal.recordEndAsync(d)
	}
	_ = m.journal.Sync()
	m.wg.Wait()
}

// WriteMetrics writes the daemon-wide Prometheus exposition: the merged
// katara_* pipeline families (aggregate of finished jobs + live pipelines
// of unfinished ones — monotone by construction) followed by the katarad_*
// job-accounting families.
func (m *Manager) WriteMetrics(w io.Writer) error {
	merged := telemetry.New()
	m.mu.Lock()
	merged.Merge(m.aggregate)
	for _, id := range m.order {
		if job := m.jobs[id]; !job.absorbed {
			merged.Merge(job.pipe)
		}
	}
	submitted, completed, failed := m.submitted, m.completed, m.failed
	cancelled, rejected, running := m.cancelled, m.rejected, m.running
	panics, requeued, poisoned := m.panics, m.requeued, m.poisoned
	appended := m.appended
	sessions := int64(len(m.retained))
	queued := int64(len(m.queue))
	var draining int64
	if m.draining {
		draining = 1
	}
	m.mu.Unlock()
	var memoEntries int
	var memoResets int64
	if kb := m.pristine.Load(); kb != nil {
		memoEntries, memoResets = kb.LabelMemo(nil)
	}

	if err := merged.Snapshot().WriteProm(w); err != nil {
		return err
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("katarad_jobs_submitted_total", "Jobs accepted into the queue.", submitted)
	counter("katarad_jobs_completed_total", "Jobs finished successfully.", completed)
	counter("katarad_jobs_failed_total", "Jobs finished with an error.", failed)
	counter("katarad_jobs_cancelled_total", "Jobs cancelled before or during execution.", cancelled)
	counter("katarad_jobs_rejected_total", "Submissions rejected because the queue was full.", rejected)
	counter("katarad_jobs_panics_total", "Job panics converted into failed jobs instead of daemon crashes.", panics)
	counter("katarad_jobs_requeued_total", "Jobs re-queued from the journal at boot.", requeued)
	counter("katarad_jobs_poisoned_total", "Jobs quarantined at boot after crashing the daemon twice.", poisoned)
	counter("katarad_jobs_appended_total", "Append increments accepted against finished jobs.", appended)
	gauge("katarad_sessions_retained", "Incremental sessions held for the append fast path.", sessions)
	gauge("katarad_jobs_running", "Jobs currently executing.", running)
	gauge("katarad_jobs_queued", "Jobs waiting in the queue.", queued)
	gauge("katarad_draining", "1 while the daemon is draining for graceful shutdown.", draining)
	gauge("katarad_label_memo_entries", "Fuzzy label lookups memoised on the pristine KB, answered once for every job.", int64(memoEntries))
	counter("katarad_label_memo_resets_total", "Times the pristine KB's label memo filled up and was cleared.", memoResets)
	writeBuildInfoMetric(w)
	return nil
}
