//go:build !race

package repair

// raceEnabled reports whether the race detector is active; its
// instrumentation adds per-call allocations that break allocation tests.
const raceEnabled = false
