// Package provenance records the evidence lineage behind every cell-level
// decision the cleaning pipeline takes: which candidate patterns scored how
// during discovery, which MUVF entropy steps validated the winner (§5), which
// KB facts and crowd questions decided each tuple's annotation (§6.1) — down
// to the per-worker votes, retries and degradation events behind each
// question — and which top-k candidate graphs a repair was chosen from
// (§6.2), with their costs.
//
// The instrument is a *Recorder. A nil *Recorder is the disabled instrument:
// every method is safe to call on it and does nothing, without allocating,
// mirroring the nil *telemetry.Pipeline idiom. Call sites that must build
// evidence values (descriptions, candidate lists) guard on Enabled() so the
// disabled pipeline does no provenance work at all; reports are byte-identical
// with provenance on or off (a propcheck invariant).
//
// Under distinct-signature dedup the pipeline decides once per signature
// group; the recorder stores evidence per decision unit (the group index, or
// the row index when dedup is off) and fans out to rows at read time via the
// row→unit mapping installed by SetRowUnits.
package provenance

import (
	"fmt"
	"sort"
	"sync"
)

// PatternScore is one discovery candidate: a tree pattern's rank-join score
// and whether it was the pattern the run chose.
type PatternScore struct {
	Key    string  `json:"key"`
	Score  float64 `json:"score"`
	Chosen bool    `json:"chosen"`
}

// ValidationStep is one MUVF iteration (§5): the variable picked by maximum
// entropy, the questions spent on it, and the answer the crowd settled on.
type ValidationStep struct {
	Step      int     `json:"step"`
	Variable  string  `json:"variable"`
	Entropy   float64 `json:"entropy"`
	Questions int     `json:"questions"`
	Answer    string  `json:"answer"`
	Degraded  bool    `json:"degraded,omitempty"`
}

// Vote is one worker's answer to a question, with its voting weight (1 under
// plain majority, log-odds reliability under weighted voting).
type Vote struct {
	Worker int     `json:"worker"`
	Option int     `json:"option"`
	Weight float64 `json:"weight"`
}

// Question is the full record of one crowd question: the per-worker votes
// and the resilience events (retries, timeouts, abandonments, escalations)
// it absorbed on the way to its outcome.
type Question struct {
	ID           int64    `json:"id"`
	Kind         string   `json:"kind"`
	Prompt       string   `json:"prompt"`
	Options      []string `json:"options,omitempty"`
	Votes        []Vote   `json:"votes"`
	Outcome      int      `json:"outcome"`
	Retries      int64    `json:"retries,omitempty"`
	Timeouts     int64    `json:"timeouts,omitempty"`
	Abandonments int64    `json:"abandonments,omitempty"`
	Escalations  int64    `json:"escalations,omitempty"`
	Error        string   `json:"error,omitempty"`
}

// Check is one piece of per-tuple evidence: a KB fact that matched, a crowd
// question that confirmed or rejected a missing piece, a memoized answer
// reused from an identical earlier question, or a degraded (unanswered)
// check. Cols lists the table columns the check concerns, so per-(row, col)
// explanations can filter the tuple's evidence chain.
type Check struct {
	Kind      string `json:"kind"`   // "node" | "edge" | "path" | "recheck"
	Source    string `json:"source"` // "kb" | "crowd" | "memo" | "degraded"
	Cols      []int  `json:"cols"`
	Desc      string `json:"desc"`
	QID       int64  `json:"qid,omitempty"`
	Confirmed bool   `json:"confirmed"`
}

// Tuple is one decision unit's annotation evidence: the verdict (§6.1 case
// i/ii/iii or Unknown) plus every check that led to it.
type Tuple struct {
	Unit     int     `json:"unit"`
	Verdict  string  `json:"verdict"`
	Degraded bool    `json:"degraded,omitempty"`
	KBFull   bool    `json:"kb_full,omitempty"`
	Checks   []Check `json:"checks"`
}

// Change is one cell rewrite proposed by a candidate repair.
type Change struct {
	Col  int    `json:"col"`
	From string `json:"from"`
	To   string `json:"to"`
}

// Candidate is one scored repair candidate: the instance graph, its repair
// cost (covered weight minus inverted-list agreement), and the cell changes
// aligning the tuple to it. Candidates are recorded in rank order — the
// winner is index 0 because it has the minimum (cost, graph) pair, which is
// exactly the ordering TopK applies; re-sorting the recorded list must
// reproduce it (a propcheck replay invariant).
type Candidate struct {
	Graph   int      `json:"graph"`
	Cost    float64  `json:"cost"`
	Changes []Change `json:"changes"`
}

// RepairRecord is one decision unit's repair evidence: how many instance
// graphs the inverted lists retrieved and the top-k candidates kept.
type RepairRecord struct {
	Unit       int         `json:"unit"`
	Considered int         `json:"considered"`
	Candidates []Candidate `json:"candidates"`
}

// DriftEvent records one pattern-drift detection during incremental
// cleaning: an appended sample shifted a validation decision context (or
// demoted the validated pattern below its runner-up), forcing a full
// re-validation instead of delta reuse.
type DriftEvent struct {
	Seq    int    `json:"seq"`    // 1-based order of detection in the session
	Reason string `json:"reason"` // what the drift detector observed
	Rows   int    `json:"rows"`   // table size at detection time
}

// Recorder accumulates one run's evidence lineage. The zero value is ready
// to use; nil means disabled. Methods are safe for concurrent use, but
// question IDs are only assigned by the recorder the crowd asks through
// (questions are issued serially by the orchestrating goroutine); fan-out
// children record tuple/repair evidence for disjoint unit ranges and merge
// back deterministically.
type Recorder struct {
	mu      sync.Mutex
	rowUnit []int // row -> decision unit; nil = identity
	dedup   bool

	patterns  []PatternScore
	steps     []ValidationStep
	questions []Question
	tuples    map[int]*Tuple
	repairs   map[int]*RepairRecord
	drifts    []DriftEvent
	nextQID   int64
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		tuples:  make(map[int]*Tuple),
		repairs: make(map[int]*RepairRecord),
	}
}

// Enabled reports whether the recorder collects evidence. Call sites that
// must allocate to build evidence values (descriptions, candidate lists)
// guard on it so the disabled path stays zero-cost.
func (r *Recorder) Enabled() bool { return r != nil }

// SetRowUnits installs the decision units (the interned table's signature
// groups) of rows [lo, lo+len(units)) and marks whether dedup collapsed rows.
// Rows below lo keep their units, so an Append maps only its own rows; the
// mapping is cut to lo first, so a repeated call is idempotent. A Clean
// passes lo = 0, and the recorder then keeps units itself instead of a copy.
// A nil mapping at lo = 0 means every row is its own unit.
func (r *Recorder) SetRowUnits(lo int, units []int, dedup bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if lo > len(r.rowUnit) {
		panic(fmt.Sprintf("provenance: units set from row %d, but only %d rows are mapped", lo, len(r.rowUnit)))
	}
	if lo == 0 {
		r.rowUnit = units
	} else {
		r.rowUnit = append(r.rowUnit[:lo], units...)
	}
	r.dedup = dedup
}

// UnitOf returns row's decision unit (identity when no mapping installed).
func (r *Recorder) UnitOf(row int) int {
	if r == nil {
		return row
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.unitOfLocked(row)
}

func (r *Recorder) unitOfLocked(row int) int {
	if r.rowUnit == nil || row < 0 || row >= len(r.rowUnit) {
		return row
	}
	return r.rowUnit[row]
}

// rowsOfLocked returns the rows fanning out from unit, ascending.
func (r *Recorder) rowsOfLocked(unit int) []int {
	if r.rowUnit == nil {
		return []int{unit}
	}
	var rows []int
	for row, u := range r.rowUnit {
		if u == unit {
			rows = append(rows, row)
		}
	}
	return rows
}

// RecordPattern records one discovery candidate's score.
func (r *Recorder) RecordPattern(key string, score float64, chosen bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.patterns = append(r.patterns, PatternScore{Key: key, Score: score, Chosen: chosen})
}

// RecordValidationStep records one MUVF entropy iteration.
func (r *Recorder) RecordValidationStep(variable string, entropy float64, questions int, answer string, degraded bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps = append(r.steps, ValidationStep{
		Step:      len(r.steps) + 1,
		Variable:  variable,
		Entropy:   entropy,
		Questions: questions,
		Answer:    answer,
		Degraded:  degraded,
	})
}

// RecordDrift records one pattern-drift detection (incremental cleaning's
// lazy re-validation trigger). Unlike the per-run evidence, drift events
// survive Reset only through the caller re-recording them — each Append pass
// accumulates into the same session recorder, so they build up naturally.
func (r *Recorder) RecordDrift(reason string, rows int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drifts = append(r.drifts, DriftEvent{Seq: len(r.drifts) + 1, Reason: reason, Rows: rows})
}

// Drifts returns the recorded drift events in detection order.
func (r *Recorder) Drifts() []DriftEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DriftEvent(nil), r.drifts...)
}

// StartQuestion opens a question record and returns its ID (IDs are 1-based
// and strictly increasing in ask order). The options slice is copied.
func (r *Recorder) StartQuestion(kind, prompt string, options []string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextQID++
	r.questions = append(r.questions, Question{
		ID:      r.nextQID,
		Kind:    kind,
		Prompt:  prompt,
		Options: append([]string(nil), options...),
	})
	return r.nextQID
}

// AddVote appends one worker's answer to question qid.
func (r *Recorder) AddVote(qid int64, worker, option int, weight float64) {
	if r == nil || qid <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if q := r.questionLocked(qid); q != nil {
		q.Votes = append(q.Votes, Vote{Worker: worker, Option: option, Weight: weight})
	}
}

// FinishQuestion closes question qid with its outcome and resilience
// accounting. errMsg is non-empty when the question failed outright
// (budget exhausted or deadline expired with no votes).
func (r *Recorder) FinishQuestion(qid int64, outcome int, retries, timeouts, abandonments, escalations int64, errMsg string) {
	if r == nil || qid <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if q := r.questionLocked(qid); q != nil {
		q.Outcome = outcome
		q.Retries = retries
		q.Timeouts = timeouts
		q.Abandonments = abandonments
		q.Escalations = escalations
		q.Error = errMsg
	}
}

func (r *Recorder) questionLocked(qid int64) *Question {
	i := int(qid) - 1
	if i < 0 || i >= len(r.questions) {
		return nil
	}
	return &r.questions[i]
}

// LastQuestionID returns the ID of the most recently started question
// (0 when none). Questions are asked serially by the orchestrating
// goroutine, so a caller that just issued one reads its ID back here.
func (r *Recorder) LastQuestionID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextQID
}

// BeginTuple opens (or reopens) unit's tuple record and reports whether the
// caller should record evidence for it. A unit with a settled verdict keeps
// its record — duplicate rows of a deduped signature share the first
// occurrence's evidence — but a degraded record is cleared and re-recorded:
// degradation is a property of the run's remaining budget, and a later
// duplicate may obtain real answers.
func (r *Recorder) BeginTuple(unit int) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tuples[unit]; ok && t.Verdict != "" && !t.Degraded {
		return false
	}
	if r.tuples == nil {
		r.tuples = make(map[int]*Tuple)
	}
	r.tuples[unit] = &Tuple{Unit: unit}
	return true
}

// RecordCheck appends one evidence check to unit's tuple record. The cols
// slice is copied.
func (r *Recorder) RecordCheck(unit int, kind, source string, cols []int, desc string, qid int64, confirmed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tupleLocked(unit)
	t.Checks = append(t.Checks, Check{
		Kind:      kind,
		Source:    source,
		Cols:      append([]int(nil), cols...),
		Desc:      desc,
		QID:       qid,
		Confirmed: confirmed,
	})
}

// RecordVerdict sets unit's annotation verdict.
func (r *Recorder) RecordVerdict(unit int, verdict string, degraded, kbFull bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tupleLocked(unit)
	t.Verdict = verdict
	t.Degraded = degraded
	t.KBFull = kbFull
}

func (r *Recorder) tupleLocked(unit int) *Tuple {
	if r.tuples == nil {
		r.tuples = make(map[int]*Tuple)
	}
	t, ok := r.tuples[unit]
	if !ok {
		t = &Tuple{Unit: unit}
		r.tuples[unit] = t
	}
	return t
}

// RecordRepair records unit's candidate list (rank order; the winner is
// index 0) and how many graphs the inverted lists retrieved.
func (r *Recorder) RecordRepair(unit, considered int, cands []Candidate) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.repairs == nil {
		r.repairs = make(map[int]*RepairRecord)
	}
	r.repairs[unit] = &RepairRecord{Unit: unit, Considered: considered, Candidates: cands}
}

// Child returns a recorder for one range of a parallel stage's fan-out.
// Children record tuple/repair evidence for their range's units; question
// IDs stay with the parent (crowd interaction is serial).
func (r *Recorder) Child() *Recorder {
	if r == nil {
		return nil
	}
	return NewRecorder()
}

// Merge folds a fan-out child's evidence back into r. Units are disjoint
// across ranges, so merging children in range order is deterministic
// regardless of completion order.
func (r *Recorder) Merge(child *Recorder) {
	if r == nil || child == nil {
		return
	}
	child.mu.Lock()
	patterns := child.patterns
	steps := child.steps
	questions := child.questions
	tuples := child.tuples
	repairs := child.repairs
	child.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.patterns = append(r.patterns, patterns...)
	r.steps = append(r.steps, steps...)
	r.questions = append(r.questions, questions...)
	for u, t := range tuples {
		r.tuples[u] = t
	}
	for u, rec := range repairs {
		r.repairs[u] = rec
	}
}

// Reset clears all recorded evidence (the run-level recorder is reused when
// a cleaner retries discovery). Drift events are deliberately kept: they are
// session-scoped, and the full re-clean a drift triggers Resets the recorder
// for its own run-level evidence.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.patterns = nil
	r.steps = nil
	r.questions = nil
	r.tuples = make(map[int]*Tuple)
	r.repairs = make(map[int]*RepairRecord)
	r.nextQID = 0
	r.rowUnit = nil
	r.dedup = false
}

// sortedUnits returns the keys of m ascending.
func sortedUnits[V any](m map[int]*V) []int {
	units := make([]int, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Ints(units)
	return units
}
