// Package jobs is the cleaning-as-a-service layer: validated job
// parameters, a bounded-concurrency job manager that runs each submitted
// table through the pipeline against a per-job copy-on-write share of a
// pristine KB, and the HTTP/JSON surface cmd/katarad mounts.
//
// The package sits above the root katara API (it imports it, never the
// reverse) so the library keeps zero knowledge of the service boundary.
package jobs

import (
	"fmt"
	"math"
	"strings"
	"time"

	"katara"
)

// Params are the numeric knobs a cleaning run accepts, shared verbatim by
// the katara CLI flags, the kexp driver and katarad job submissions so all
// three reject bad values with the same message instead of silently
// misbehaving (a negative budget used to mean "unlimited", a fractional
// worker count truncated, a negative deadline expired instantly).
type Params struct {
	// Workers is the run's parallelism (katara.Options.Workers): 0 or 1
	// serial, -1 = GOMAXPROCS, anything below -1 invalid.
	Workers int `json:"workers,omitempty"`
	// Shards is an alias of Workers, still accepted so existing clients and
	// journals keep working; the run uses the larger of the two.
	Shards int `json:"shards,omitempty"`
	// RepairK caps possible repairs per erroneous tuple (0 = library
	// default).
	RepairK int `json:"repair_k,omitempty"`
	// Budget caps crowd questions per run, BudgetAssignments paid
	// assignments (0 = unlimited; negative is an error, not unlimited).
	Budget            int `json:"budget,omitempty"`
	BudgetAssignments int `json:"budget_assignments,omitempty"`
	// DeadlineMS bounds the run's wall-clock in milliseconds (0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// FaultRate is the injected per-assignment crowd fault probability,
	// in [0, 1).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Scale is the workload scale factor for drivers that generate their
	// tables (kexp: 1.0 = Person 5000 rows); 0 = driver default.
	Scale float64 `json:"scale,omitempty"`
	// Degrade picks the policy for tuples unanswered after budget/deadline
	// exhaustion: "" or "trust" = trust the KB, "unknown" = mark unknown.
	Degrade string `json:"degrade,omitempty"`
	// DedupOff disables distinct-signature execution (katara.Options.Dedup;
	// on by default — the zero value keeps it on). Mainly a measurement
	// knob: annotations and repairs are identical either way, only crowd
	// question counts differ on tables with duplicate rows.
	DedupOff bool `json:"dedup_off,omitempty"`
}

// ValidationError aggregates every rejected parameter so a caller fixes one
// round trip's worth of mistakes, not one mistake per round trip.
type ValidationError struct {
	Problems []string
}

func (e *ValidationError) Error() string {
	return "invalid parameters: " + strings.Join(e.Problems, "; ")
}

// Validate checks every numeric knob and returns a *ValidationError listing
// all violations, or nil.
func (p Params) Validate() error {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if p.Workers < -1 {
		bad("workers must be >= -1 (-1 = GOMAXPROCS), got %d", p.Workers)
	}
	if p.Shards < -1 {
		bad("shards must be >= -1 (-1 = GOMAXPROCS), got %d", p.Shards)
	}
	if p.RepairK < 0 {
		bad("repair_k must be >= 0 (0 = default), got %d", p.RepairK)
	}
	if p.Budget < 0 {
		bad("budget must be >= 0 (0 = unlimited), got %d", p.Budget)
	}
	if p.BudgetAssignments < 0 {
		bad("budget_assignments must be >= 0 (0 = unlimited), got %d", p.BudgetAssignments)
	}
	if p.DeadlineMS < 0 {
		bad("deadline must be >= 0 (0 = none), got %dms", p.DeadlineMS)
	}
	if math.IsNaN(p.FaultRate) || p.FaultRate < 0 || p.FaultRate >= 1 {
		bad("fault_rate must be in [0, 1), got %v", p.FaultRate)
	}
	if math.IsNaN(p.Scale) || math.IsInf(p.Scale, 0) || p.Scale < 0 {
		bad("scale must be a finite value >= 0 (0 = default), got %v", p.Scale)
	}
	switch p.Degrade {
	case "", "trust", "unknown":
	default:
		bad("degrade must be \"trust\" or \"unknown\", got %q", p.Degrade)
	}
	if problems != nil {
		return &ValidationError{Problems: problems}
	}
	return nil
}

// Deadline converts DeadlineMS into the duration katara.Options wants.
func (p Params) Deadline() time.Duration {
	return time.Duration(p.DeadlineMS) * time.Millisecond
}

// Options maps the validated parameters onto katara.Options. Fields outside
// Params' scope (oracles, transports, pipelines) are left zero for the
// caller to fill in.
func (p Params) Options() katara.Options {
	opts := katara.Options{
		Workers:           p.Workers,
		Shards:            p.Shards,
		RepairK:           p.RepairK,
		Budget:            p.Budget,
		BudgetAssignments: p.BudgetAssignments,
		Deadline:          p.Deadline(),
	}
	if p.Degrade == "unknown" {
		opts.Degrade = katara.DegradeMarkUnknown
	} else {
		opts.Degrade = katara.DegradeTrustKB
	}
	if p.DedupOff {
		f := false
		opts.Dedup = &f
	}
	return opts
}
