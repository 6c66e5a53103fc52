// Package fanout is the pipeline's one parallelism primitive. Every stage
// that runs in parallel — candidate generation, annotation coverage,
// instance-graph enumeration and repair ranking — splits its units into
// contiguous ranges and runs them through Run, the single-machine analogue
// of the paper's distribution of tuples over machines (§7.1).
//
// Run gives each range its own goroutine, child telemetry pipeline and child
// provenance recorder, captures the first panic with the worker's stack, and
// after the join either re-raises that panic or merges the children in range
// order. Because ranges are contiguous and the merge is ordered, the result
// never depends on which goroutine finished first.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"katara/internal/provenance"
	"katara/internal/telemetry"
)

// PanicError is a panic recovered from a fan-out goroutine, carrying the
// original goroutine's stack. Run re-raises it on the calling goroutine
// after the barrier joins — so a panic in one range never leaks a goroutine
// or deadlocks the merge, and callers that isolate panics (the job server)
// can preserve the true origin stack instead of the re-raise site's.
type PanicError struct {
	Stage string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s fan-out worker: %v", e.Stage, e.Value)
}

// PanicHook is a test seam: when non-nil it runs at the top of every
// fan-out goroutine with the stage label and the range index, letting tests
// inject a panic inside a real worker of one stage. Never set outside tests.
var PanicHook func(stage string, part int)

// Range is one contiguous unit range [Lo, Hi).
type Range struct{ Lo, Hi int }

// Ranges splits n units into at most par contiguous ranges of near-equal
// size (the first n%par ranges take one extra unit). Empty ranges are never
// produced.
func Ranges(n, par int) []Range {
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	out := make([]Range, 0, par)
	base, extra := n/par, n%par
	lo := 0
	for i := 0; i < par; i++ {
		size := base
		if i < extra {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Splits reports whether Run fans n units out at parallelism par rather
// than running them inline: with fewer than two units per goroutine the
// pool does not pay off. Stages use it to force lazily-memoised shared state
// (KB closures) only when workers will actually race for it.
func Splits(n, par int) bool { return par > 1 && n >= 2*par }

// Part is one range's share of a fan-out: its index, its bounds and the
// instruments it records into.
type Part struct {
	Index  int
	Lo, Hi int
	// Tel and Prov are the range's child pipeline and recorder (nil when
	// the parent is nil), merged into the parent in range order after the
	// join. Inline runs get the parent's own instruments.
	Tel  *telemetry.Pipeline
	Prov *provenance.Recorder
}

// Run splits [0, n) into at most par contiguous ranges and calls f once per
// range. When Splits(n, par) is false it calls f once, inline, over the
// whole range with tel and rec themselves. Otherwise every range runs on
// its own goroutine; the first panic is captured as a *PanicError and
// re-raised after the join, and on success the children are merged into tel
// and rec in range order. stage labels the fan-out in panics and PanicHook.
func Run(stage string, n, par int, tel *telemetry.Pipeline, rec *provenance.Recorder, f func(Part)) {
	if !Splits(n, par) {
		f(Part{Lo: 0, Hi: n, Tel: tel, Prov: rec})
		return
	}
	ranges := Ranges(n, par)
	parts := make([]Part, len(ranges))
	for i, rg := range ranges {
		parts[i] = Part{Index: i, Lo: rg.Lo, Hi: rg.Hi, Prov: rec.Child()}
		if tel != nil {
			parts[i].Tel = telemetry.New()
		}
	}
	var wg sync.WaitGroup
	var panicked atomic.Pointer[PanicError]
	for _, part := range parts {
		wg.Add(1)
		go func(part Part) {
			defer wg.Done()
			runGuarded(&panicked, stage, part.Index, func() { f(part) })
		}(part)
	}
	wg.Wait()
	rethrow(&panicked)
	for _, part := range parts {
		tel.Merge(part.Tel)
		rec.Merge(part.Prov)
	}
}

// runGuarded runs one range's work with panic capture: the first panicking
// range parks a *PanicError in first, the rest are dropped, and the
// goroutine returns normally so the WaitGroup barrier always joins.
func runGuarded(first *atomic.Pointer[PanicError], stage string, part int, f func()) {
	defer func() {
		if r := recover(); r != nil {
			first.CompareAndSwap(nil, &PanicError{Stage: stage, Value: r, Stack: string(debug.Stack())})
		}
	}()
	if h := PanicHook; h != nil {
		h(stage, part)
	}
	f()
}

// rethrow re-raises a captured panic on the caller, after the barrier.
func rethrow(first *atomic.Pointer[PanicError]) {
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}
