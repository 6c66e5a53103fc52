package main

import (
	"fmt"
	"runtime"
	"time"

	"katara"
	"katara/internal/workload"
)

// runWebtables is a closed loop with one client over the WebTables tables in
// round-robin order: each op is NewCleaner + Clean of one table against a
// fresh clone of the Yago-shaped KB (cloned outside the timer). The warm-up
// is one untimed pass over every table; each later op must reproduce its
// table's warm-up report.
func runWebtables(cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	var in *webInputs
	setup, err := setupSeconds(cfg.setupReps, func() error {
		in = genWeb(deriveSeeds(cfg.seed), cfg.webTables)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup
	n := len(in.specs)
	fmt.Fprintf(cfg.log, "webtables: %d tables, %d rows, KB %d triples, set-up %.3fs\n",
		n, in.rows(), in.kb.Store.NumTriples(), setup)

	clean := func(i int, kb *workload.KB, telemetry bool) (*katara.Report, time.Duration, error) {
		opts := withFanout(katara.Options{
			FactOracle:       workload.WorldOracle{W: in.world, KB: kb},
			ValidationOracle: workload.SpecOracle{Spec: in.specs[i], KB: kb},
			Telemetry:        telemetry,
		})
		// The KB clone's garbage is set-up, not the op's: collect it first.
		runtime.GC()
		start := time.Now()
		rep, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts).Clean(in.specs[i].Table)
		return rep, time.Since(start), err
	}

	refs := make([]*katara.Report, n)
	want := make([][32]byte, n)
	var timings []*katara.Timings
	var questions int
	var f1 float64
	for i, spec := range in.specs {
		kb := in.kb.Clone()
		rep, _, err := clean(i, kb, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("warm-up clean of %s: %w", spec.Table.Name, err)
		}
		refs[i], want[i] = rep, digest(rep)
		timings = append(timings, rep.Timings)
		questions += rep.QuestionsAsked
		f1 += patternF1(kb, rep, spec)
	}
	o.values["crowd_questions"] = float64(questions)
	o.values["pattern_f1"] = f1 / float64(n)

	var ops, traced []time.Duration
	var rows int
	counts := make([]replayCounts, n)
	cpu := startCPUWindow()
	deadline := time.Now().Add(cfg.seconds)
	// The loop makes at least one whole pass, so the traced mode's per-pass
	// counts cover every table.
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		t := i % n
		kb := in.kb.Clone()
		o.attempted++
		rep, d, err := clean(t, kb, false)
		switch {
		case err != nil:
			o.fail("clean of %s: %v", in.specs[t].Table.Name, err)
		case digest(rep) != want[t]:
			o.fail("clean of %s: report differs from the warm-up's", in.specs[t].Table.Name)
		default:
			ops = append(ops, d)
			rows += in.specs[t].Table.NumRows()
		}
		if o.tracer == nil {
			continue
		}
		o.attempted++
		// The KB clone is the op's set-up, not part of it: a root span of its
		// own beside the op.
		op := o.tracer.newOp()
		var rkb *workload.KB
		o.tracer.wrap(op, 0, "rdf.clone", func() { rkb = in.kb.Clone() })
		d, cnt, err := tracedOp(o.tracer, op, refs[t], func(int) replayInput {
			return replayInput{
				kb: rkb.Store, tbl: in.specs[t].Table,
				vo: workload.SpecOracle{Spec: in.specs[t], KB: rkb},
				fo: workload.WorldOracle{W: in.world, KB: rkb},
			}
		})
		if err != nil {
			o.fail("traced replay of %s: %v", in.specs[t].Table.Name, err)
			continue
		}
		traced = append(traced, d)
		if i < n {
			counts[t] = cnt
		}
	}
	o.timings(ops)
	o.values["katara.rows_per_s"] = rowsPerSecond(rows, ops)
	if o.tracer != nil {
		layerMetrics(o.tracer.profiles(), o.values)
		replayMetrics(o.values, sumCounts(counts))
		o.values["crowd.memo_hit_ratio"] = memoHitRatio(timings...)
		o.values["repair.f1"] = 0 // WebTables carry no injected errors
		o.values["runtime.gc_cpu_share"] = cpu.gcShare()
		o.values["trace.overhead_share"] = overheadShare(traced, ops)
		idleLayers(o.values, append(append([]string{"rdf.snapshot_ms"}, appendLayers...), jobsLayers...)...)
	}
	return o, nil
}
