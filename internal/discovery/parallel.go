package discovery

import (
	"runtime"

	"katara/internal/fanout"
	"katara/internal/kbstats"
	"katara/internal/table"
)

// GenerateParallel is the single-machine analogue of the paper's
// distributed candidate generation ("we implemented a distributed version
// of candidate types/relationships generation by distributing the 316K
// tuples over 30 machines, and all candidates are collected into one
// machine", §7.1): the sampled rows are split into contiguous ranges, each
// range's per-cell evidence is collected concurrently against the shared
// (read-only) KB into its own slots, and one scoring pass then ranks the
// complete evidence in row order against the KB statistics. The scoring
// pass is the same for every worker count, so GenerateParallel(tbl, stats,
// opts, n) returns exactly Generate(tbl, stats, opts). workers <= 0 uses
// GOMAXPROCS.
func GenerateParallel(tbl *table.Table, stats *kbstats.Stats, opts Options, workers int) *Candidates {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := sampleRows(tbl.NumRows(), opts.MaxRows)
	ev := newEvidence(tbl.NumCols(), len(rows))
	if fanout.Splits(len(rows), workers) {
		// Workers read only the KB behind stats, concurrently: a Stats fills
		// its statistics on demand and belongs to one goroutine, so only
		// the serial scoring pass reads it, and the KB's lazily-memoised
		// hierarchy closures must be computed up front. The KB label index
		// is read-only after build, so MatchLabel is safe.
		stats.KB().WarmClosures()
	}
	fanout.Run("discovery", len(rows), workers, opts.Telemetry, nil, func(p fanout.Part) {
		ev.collect(tbl, rows, p.Lo, p.Hi, stats, opts, p.Tel)
	})
	c := &Candidates{Table: tbl, Rows: rows, Stats: stats, Options: opts}
	ev.score(c)
	return c
}
