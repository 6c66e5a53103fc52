// Hierarchical spans and the JSONL run journal. The stage timers see four
// coarse phases; spans see inside them: each crowd-question round-trip (with
// its retries and escalations), each rank-join expansion, each tuple's
// annotation, each erroneous row's top-k retrieval, each resolver cache
// miss. One span is one JSON line in the journal, emitted when the span
// ends, so a `-trace out.jsonl` run leaves a replayable record that
// reconstructs into a single rooted tree.
//
// Concurrency model: *scoped* spans (the run root and the pipeline stages)
// are pushed and popped by the orchestrating goroutine only — the same
// contract StartStage documents. *Leaf* spans
// (StartSpan) may be created and ended from any goroutine; their parent is
// whatever scoped span is current at creation time.
//
// The disabled path (nil *Pipeline, or no journal attached) allocates
// nothing: StartSpan returns the zero Span, whose methods are no-ops.

package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Journal is an append-only JSONL span sink. One line per ended span:
//
//	{"id":7,"parent":2,"name":"crowd-question","start_us":1042,"dur_us":310,
//	 "attrs":{"assignments":3,"kind":"fact-verification"}}
//
// Timestamps are microseconds since the journal's epoch (its creation).
// Children end before their parents, so a parent's line appears after its
// children's; ids are allocated at span start, so a parent's id is always
// smaller than its children's.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	err   error
	spans int64

	idMu   sync.Mutex
	nextID uint64

	epoch time.Time
}

// NewJournal returns a journal writing JSONL to w. The caller owns w's
// lifecycle (buffering, flushing, closing).
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, epoch: time.Now()}
}

// Err returns the first write or encode error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Spans returns the number of spans emitted so far.
func (j *Journal) Spans() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans
}

// nextSpanID allocates a fresh span id (1-based; 0 means "no span").
func (j *Journal) nextSpanID() uint64 {
	j.idMu.Lock()
	j.nextID++
	id := j.nextID
	j.idMu.Unlock()
	return id
}

// SpanRecord is the journal's line format, exported so tools and tests can
// unmarshal journal lines directly.
type SpanRecord struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// emit writes one ended span. encoding/json sorts map keys, so lines are
// deterministic for a given set of attributes.
func (j *Journal) emit(s *Span) {
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.Sub(j.epoch).Microseconds(),
		DurUS:   time.Since(s.start).Microseconds(),
		Attrs:   s.attrs,
	}
	line, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil && j.err == nil {
		j.err = err
	}
	j.spans++
}

// Span is one traced operation. The zero Span is the disabled span: every
// method is a no-op. Spans are created through Pipeline.StartSpan /
// Pipeline.PushSpan and must be ended exactly once; End on an already-ended
// or disabled span is a no-op.
type Span struct {
	p      *Pipeline
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]any
	pushed bool
	ended  bool
}

// Enabled reports whether the span records anything.
func (s *Span) Enabled() bool { return s != nil && s.p != nil }

// attr lazily sets one attribute. Caller has checked s.p != nil.
func (s *Span) attr(key string, v any) {
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// SetInt attaches an integer attribute. No-op (and allocation-free) when
// the span is disabled.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.p == nil || s.ended {
		return
	}
	s.attr(key, v)
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil || s.p == nil || s.ended {
		return
	}
	s.attr(key, v)
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil || s.p == nil || s.ended {
		return
	}
	s.attr(key, v)
}

// End emits the span to the journal (and, for pushed spans, restores its
// parent as the current span).
func (s *Span) End() {
	if s == nil || s.p == nil || s.ended {
		return
	}
	s.ended = true
	if s.pushed {
		s.p.popSpan(s.id)
	}
	s.p.journal.emit(s)
}

// SetJournal attaches a span journal; nil detaches. Must be called before
// the run starts (span creation races with journal swaps are not
// synchronised).
func (p *Pipeline) SetJournal(j *Journal) {
	if p == nil {
		return
	}
	p.journal = j
}

// Journal returns the attached journal (nil when disabled or detached).
func (p *Pipeline) Journal() *Journal {
	if p == nil {
		return nil
	}
	return p.journal
}

// StartSpan opens a leaf span named name, child of the current scoped span
// (the innermost pushed span — typically the active stage; the run root or
// nothing when no stage is active). Safe from any goroutine. Returns the
// zero Span, without allocating, when the pipeline is disabled or no
// journal is attached.
func (p *Pipeline) StartSpan(name string) Span {
	if p == nil || p.journal == nil {
		return Span{}
	}
	return Span{
		p:      p,
		id:     p.journal.nextSpanID(),
		parent: p.curSpan.Load(),
		name:   name,
		start:  time.Now(),
	}
}

// PushSpan opens a scoped span: like StartSpan, but the new span also
// becomes the current span until its End, so spans started in between
// become its children. Push/End pairs must nest and run on the
// orchestrating goroutine (the stage contract); leaf spans from worker
// goroutines may attach concurrently.
func (p *Pipeline) PushSpan(name string) Span {
	sp := p.StartSpan(name)
	if sp.p == nil {
		return sp
	}
	sp.pushed = true
	p.spanMu.Lock()
	p.spanStack = append(p.spanStack, sp.id)
	p.curSpan.Store(sp.id)
	p.spanMu.Unlock()
	return sp
}

// popSpan removes id (and anything pushed above it) from the scope stack
// and restores the enclosing span as current.
func (p *Pipeline) popSpan(id uint64) {
	p.spanMu.Lock()
	for i := len(p.spanStack) - 1; i >= 0; i-- {
		if p.spanStack[i] == id {
			p.spanStack = p.spanStack[:i]
			break
		}
	}
	var cur uint64
	if n := len(p.spanStack); n > 0 {
		cur = p.spanStack[n-1]
	}
	p.curSpan.Store(cur)
	p.spanMu.Unlock()
}
