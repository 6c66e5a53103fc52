package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeJournal parses a JSONL journal into records, failing on any
// malformed line.
func decodeJournal(t *testing.T, buf *bytes.Buffer) []SpanRecord {
	t.Helper()
	var recs []SpanRecord
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("malformed journal line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	return recs
}

// checkTree asserts the journal invariants: unique ids, exactly one root,
// every parent exists, and parent ids precede child ids (ids are allocated
// at span start, so a parent always starts before its children).
func checkTree(t *testing.T, recs []SpanRecord) {
	t.Helper()
	ids := map[uint64]bool{}
	roots := 0
	for _, r := range recs {
		if r.ID == 0 {
			t.Fatalf("span %q has id 0", r.Name)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		ids[r.ID] = true
		if r.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("journal has %d roots, want exactly 1", roots)
	}
	for _, r := range recs {
		if r.Parent == 0 {
			continue
		}
		if !ids[r.Parent] {
			t.Fatalf("span %d (%s) references missing parent %d", r.ID, r.Name, r.Parent)
		}
		if r.Parent >= r.ID {
			t.Fatalf("span %d (%s) has parent %d >= its own id", r.ID, r.Name, r.Parent)
		}
	}
}

func TestJournalSingleRootedTree(t *testing.T) {
	var buf bytes.Buffer
	p := New()
	p.SetJournal(NewJournal(&buf))

	root := p.PushSpan("clean")
	root.SetStr("table", "Soccer")
	root.SetInt("rows", 42)

	start := p.StartStage(StageDiscover)
	for i := 0; i < 3; i++ {
		sp := p.StartSpan("rank-join-iteration")
		sp.SetInt("depth", int64(i))
		sp.End()
	}
	p.EndStage(StageDiscover, start)

	// Nested stages: build-index inside repair, like the real pipeline.
	start = p.StartStage(StageRepair)
	bi := p.StartStage(StageBuildIndex)
	p.EndStage(StageBuildIndex, bi)
	sp := p.StartSpan("repair-topk")
	sp.End()
	p.EndStage(StageRepair, start)

	root.End()

	recs := decodeJournal(t, &buf)
	if len(recs) != 8 {
		t.Fatalf("journal has %d spans, want 8", len(recs))
	}
	checkTree(t, recs)

	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["clean"].Parent != 0 {
		t.Fatalf("clean should be the root, has parent %d", byName["clean"].Parent)
	}
	if got := byName["clean"].Attrs["table"]; got != "Soccer" {
		t.Fatalf("clean table attr = %v", got)
	}
	if byName["discover"].Parent != byName["clean"].ID {
		t.Fatal("discover stage span should be a child of clean")
	}
	if byName["rank-join-iteration"].Parent != byName["discover"].ID {
		t.Fatal("rank-join iterations should nest under the discover stage")
	}
	if byName["build-index"].Parent != byName["repair"].ID {
		t.Fatal("build-index should nest under repair")
	}
	if byName["repair-topk"].Parent != byName["repair"].ID {
		t.Fatal("repair-topk leaf should attach to the repair stage (innermost after build-index ended)")
	}
	// Children end (and hence are emitted) before their parents, so every
	// parent's line appears after all of its children's lines.
	emitPos := map[uint64]int{}
	for i, r := range recs {
		emitPos[r.ID] = i
	}
	for i, r := range recs {
		if r.Parent != 0 && emitPos[r.Parent] < i {
			t.Fatalf("parent %d emitted before child %d", r.Parent, r.ID)
		}
	}
	if j := p.Journal(); j.Spans() != 8 || j.Err() != nil {
		t.Fatalf("journal Spans=%d Err=%v", j.Spans(), j.Err())
	}
}

func TestConcurrentLeafSpans(t *testing.T) {
	var buf bytes.Buffer
	p := New()
	p.SetJournal(NewJournal(&buf))
	root := p.PushSpan("clean")
	start := p.StartStage(StageAnnotate)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := p.StartSpan("resolve-miss")
				sp.SetInt("worker", int64(w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	p.EndStage(StageAnnotate, start)
	root.End()
	recs := decodeJournal(t, &buf)
	if len(recs) != 8*50+2 {
		t.Fatalf("journal has %d spans, want %d", len(recs), 8*50+2)
	}
	checkTree(t, recs)
	var stageID uint64
	for _, r := range recs {
		if r.Name == "annotate" {
			stageID = r.ID
		}
	}
	for _, r := range recs {
		if r.Name == "resolve-miss" && r.Parent != stageID {
			t.Fatalf("leaf span %d has parent %d, want stage %d", r.ID, r.Parent, stageID)
		}
	}
}

func TestSpanDisabledPath(t *testing.T) {
	// nil pipeline and journal-less pipeline both yield inert spans.
	var nilP *Pipeline
	for _, p := range []*Pipeline{nilP, New()} {
		sp := p.StartSpan("x")
		if sp.p != nil {
			t.Fatal("span should be disabled")
		}
		sp.SetInt("a", 1)
		sp.SetStr("b", "2")
		sp.End()
		sp.End() // double End is a no-op
		ps := p.PushSpan("y")
		ps.End()
	}
	var zero Span
	zero.SetInt("a", 1)
	zero.End()
	if (*Journal)(nil).Err() != nil || (*Journal)(nil).Spans() != 0 {
		t.Fatal("nil journal should be inert")
	}
	var nilP2 *Pipeline
	nilP2.SetJournal(NewJournal(&bytes.Buffer{})) // must not panic
	if nilP2.Journal() != nil {
		t.Fatal("nil pipeline has no journal")
	}
}

func TestSpanZeroAllocDisabled(t *testing.T) {
	var p *Pipeline
	allocs := testing.AllocsPerRun(100, func() {
		sp := p.StartSpan("x")
		sp.SetInt("k", 1)
		sp.SetStr("s", "v")
		sp.End()
		start := p.StartTimer()
		p.ObserveSince(HistCrowdQuestion, start)
		p.Inc(CrowdQuestions)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f times per op", allocs)
	}
	// Enabled pipeline without a journal: spans stay free, histograms are
	// atomic adds only.
	p2 := New()
	allocs = testing.AllocsPerRun(100, func() {
		sp := p2.StartSpan("x")
		sp.SetInt("k", 1)
		sp.End()
		p2.ObserveSince(HistRankJoinIter, p2.StartTimer())
	})
	if allocs != 0 {
		t.Fatalf("journal-less instrumentation allocated %.1f times per op", allocs)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestJournalWriteErrorSticks(t *testing.T) {
	wantErr := errors.New("disk full")
	p := New()
	p.SetJournal(NewJournal(failWriter{err: wantErr}))
	sp := p.StartSpan("x")
	sp.End()
	if err := p.Journal().Err(); !errors.Is(err, wantErr) {
		t.Fatalf("journal Err = %v, want %v", err, wantErr)
	}
}

func TestJournalTimestamps(t *testing.T) {
	var buf bytes.Buffer
	p := New()
	p.SetJournal(NewJournal(&buf))
	sp := p.StartSpan("op")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	recs := decodeJournal(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].StartUS < 0 {
		t.Fatalf("start_us negative: %d", recs[0].StartUS)
	}
	if recs[0].DurUS < 1000 {
		t.Fatalf("dur_us = %d, want >= 1000 (slept 2ms)", recs[0].DurUS)
	}
	if !strings.Contains(buf.String(), `"name":"op"`) {
		t.Fatalf("journal line missing name: %s", buf.String())
	}
}
