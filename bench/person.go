package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"katara"
	"katara/internal/propcheck"
	"katara/internal/table"
	"katara/internal/workload"
)

// personOptions are the Options of every Person clean: the world oracles
// bound to kb, discovery sampling capped like `katara -paper-scale`, and the
// benchmark's fan-out.
func personOptions(in *personInputs, kb *workload.KB) katara.Options {
	return withFanout(katara.Options{
		FactOracle:       workload.WorldOracle{W: in.world, KB: kb},
		ValidationOracle: workload.SpecOracle{Spec: in.spec, KB: kb},
		MaxRows:          500, // discovery's sample cap: patterns saturate long before 316K rows
	})
}

// personReplay is the replay input of a Person clean against kb.
func personReplay(in *personInputs, kb *workload.KB, tbl *table.Table) replayInput {
	return replayInput{
		kb:      kb.Store,
		tbl:     tbl,
		vo:      workload.SpecOracle{Spec: in.spec, KB: kb},
		fo:      workload.WorldOracle{W: in.world, KB: kb},
		maxRows: 500,
	}
}

// tracedOp replays one clean as op under an "op" root span and checks the
// replayed report against ref. prepare runs inside the root span and returns
// the replay input, so KB copies the real op makes are timed as part of it.
func tracedOp(tr *tracer, op int, ref *katara.Report, prepare func(root int) replayInput) (time.Duration, replayCounts, error) {
	runtime.GC()
	root := tr.begin(op, 0, "op")
	rep, cnt, err := replayClean(tr, op, root, prepare(root))
	tr.end(root)
	if err != nil {
		return 0, cnt, err
	}
	if ok, diff := sameReport(propcheck.Canonical, ref, rep); !ok {
		return 0, cnt, fmt.Errorf("replayed report differs from Clean's: %s", diff)
	}
	return tr.duration(root), cnt, nil
}

// --- person316k ---

// runPerson316k is a closed loop with one client: each op is NewCleaner +
// Clean of the dirty Person table against a freshly built KB (built outside
// the timer; enrichment mutates the KB).
func runPerson316k(cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	var in *personInputs
	setup, err := setupSeconds(cfg.setupReps, func() error {
		in = genPerson(deriveSeeds(cfg.seed), cfg.personRows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup
	tbl := in.spec.Table
	fmt.Fprintf(cfg.log, "person316k: %d rows, %d signatures, %d injected errors, set-up %.3fs\n",
		tbl.NumRows(), tbl.Interned().NumGroups(), len(in.injected), setup)

	clean := func(kb *workload.KB, telemetry bool) (*katara.Report, time.Duration, error) {
		opts := personOptions(in, kb)
		opts.Telemetry = telemetry
		runtime.GC()
		start := time.Now()
		rep, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts).Clean(tbl)
		return rep, time.Since(start), err
	}

	// Warm-up op, untimed: the correctness reference of every later op. In
	// traced mode it also carries the telemetry counters.
	kb := in.newKB()
	ref, _, err := clean(kb, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("warm-up clean: %w", err)
	}
	want := digest(ref)
	o.values["crowd_questions"] = float64(ref.QuestionsAsked)
	o.values["pattern_f1"] = patternF1(kb, ref, in.spec)
	if o.values["repair.f1"], err = repairF1(ref, tbl, in.clean); err != nil {
		return nil, err
	}

	var ops, traced []time.Duration
	cpu := startCPUWindow()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		o.attempted++
		rep, d, err := clean(in.newKB(), false)
		switch {
		case err != nil:
			o.fail("clean: %v", err)
		case digest(rep) != want:
			o.fail("clean: report differs from the warm-up's")
		default:
			ops = append(ops, d)
		}
		if o.tracer == nil {
			continue
		}
		o.attempted++
		kb := in.newKB()
		d, cnt, err := tracedOp(o.tracer, o.tracer.newOp(), ref, func(int) replayInput { return personReplay(in, kb, tbl) })
		if err != nil {
			o.fail("traced replay: %v", err)
			continue
		}
		traced = append(traced, d)
		replayMetrics(o.values, cnt)
	}
	o.timings(ops)
	o.values["katara.rows_per_s"] = rowsPerSecond(tbl.NumRows()*len(ops), ops)
	if o.tracer != nil {
		layerMetrics(o.tracer.profiles(), o.values)
		o.values["crowd.memo_hit_ratio"] = memoHitRatio(ref.Timings)
		o.values["runtime.gc_cpu_share"] = cpu.gcShare()
		o.values["trace.overhead_share"] = overheadShare(traced, ops)
		idleLayers(o.values, append(append([]string{"rdf.clone_ms", "rdf.snapshot_ms"}, appendLayers...), jobsLayers...)...)
	}
	return o, nil
}

// --- person-append ---

// runPersonAppend is a closed loop with one client. Each op opens an
// incremental session by cleaning the Person table with the katarad
// configuration (Incremental + Provenance; untimed) and times one Append of
// appendRows rows sampled from the base rows. Outside the timer, the
// session's report must then equal one batch Clean of the merged table. The
// base session is the paper-scale one whatever the seed (see paperSeeds); the
// seed picks the appended rows. The first op is the untimed warm-up.
//
// One Append per session, like BenchmarkAppendDelta: successive Appends on
// one session mix three costs (a warm Append, the first Append after a
// re-clean, a drift to a full re-clean) in proportions that put the median
// on a boundary between two of them, and at HEAD a 40-Append chain breaks
// incremental ≡ batch after its eleventh drift.
func runPersonAppend(cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	var in *personInputs
	setup, err := setupSeconds(cfg.setupReps, func() error {
		in = genPerson(paperSeeds, cfg.personRows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup
	base := in.spec.Table
	fmt.Fprintf(cfg.log, "person-append: %d base rows, %d-row appends, set-up %.3fs\n", base.NumRows(), cfg.appendRows, setup)

	rng := rand.New(rand.NewSource(deriveSeeds(cfg.seed).delta))
	var ops, fast, drift, opens, traced []time.Duration
	var timings []*katara.Timings
	cpu := startCPUWindow()
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < 2 || time.Now().Before(deadline); op++ {
		warm := op == 0
		delta := make([][]string, cfg.appendRows)
		src := make([]int, cfg.appendRows)
		for i := range delta {
			src[i] = rng.Intn(base.NumRows())
			delta[i] = base.Rows[src[i]]
		}
		kb := in.newKB()
		rec := katara.NewProvenance()
		opts := personOptions(in, kb)
		opts.Incremental, opts.Provenance, opts.Telemetry = true, rec, o.tracer != nil
		cl := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts)
		runtime.GC()
		start := time.Now()
		baseRep, err := cl.Clean(base)
		if err != nil {
			return nil, fmt.Errorf("session clean: %w", err)
		}
		opens = append(opens, time.Since(start))
		if o.tracer != nil {
			timings = append(timings, baseRep.Timings)
			o.attempted++
			// The session's base clean, replayed: its KB snapshot is part of
			// the op, as it is of an incremental Clean.
			rkb := in.newKB()
			id := o.tracer.newOp()
			d, cnt, err := tracedOp(o.tracer, id, baseRep, func(root int) replayInput {
				o.tracer.wrap(id, root, "rdf.snapshot", func() { rkb.Store.CloneExact() })
				return personReplay(in, rkb, base)
			})
			if err != nil {
				o.fail("traced replay of the base clean: %v", err)
			} else {
				traced = append(traced, d)
				replayMetrics(o.values, cnt)
			}
		}

		runtime.GC()
		start = time.Now()
		rep, err := cl.Append(delta)
		d := time.Since(start)
		if warm && err != nil {
			return nil, fmt.Errorf("warm-up append: %w", err)
		}
		if !warm {
			o.attempted++
		}
		if err != nil {
			o.fail("append: %v", err)
			continue
		}
		drifted := len(rec.Drifts()) > 0
		if o.tracer != nil {
			layer := "katara.append_fast"
			if drifted {
				layer = "katara.append_drift"
			}
			o.tracer.record(o.tracer.newOp(), 0, layer, start, start.Add(d))
		}

		// The incremental ≡ batch check, outside the timer.
		merged := base.Clone()
		for _, r := range delta {
			merged.Append(r...)
		}
		rkb := in.newKB()
		batch, err := katara.NewCleaner(rkb.Store, katara.TrustingCrowd(), personOptions(in, rkb)).Clean(merged)
		if err != nil {
			return nil, fmt.Errorf("batch reference clean: %w", err)
		}
		if ok, diff := sameReport(propcheck.CanonicalSemantic, batch, rep); !ok {
			if warm {
				return nil, fmt.Errorf("warm-up append: report differs from a batch clean of the merged table: %s", diff)
			}
			o.fail("append: report differs from a batch clean of the merged table: %s", diff)
			continue
		}
		if warm {
			o.values["crowd_questions"] = float64(rep.QuestionsAsked)
			o.values["pattern_f1"] = patternF1(kb, rep, in.spec)
			mergedClean := in.clean.Clone()
			for _, i := range src {
				mergedClean.Append(in.clean.Rows[i]...)
			}
			if o.values["repair.f1"], err = repairF1(rep, merged, mergedClean); err != nil {
				return nil, err
			}
			continue
		}
		ops = append(ops, d)
		if drifted {
			drift = append(drift, d)
		} else {
			fast = append(fast, d)
		}
	}
	o.timings(ops)
	o.values["katara.rows_per_s"] = rowsPerSecond(cfg.appendRows*len(ops), ops)
	if o.tracer != nil {
		layerMetrics(o.tracer.profiles(), o.values)
		o.values["crowd.memo_hit_ratio"] = memoHitRatio(timings...)
		o.values["runtime.gc_cpu_share"] = cpu.gcShare()
		o.values["trace.overhead_share"] = overheadShare(traced, opens)
		o.values["katara.append_fast_ms"] = median(durationsMS(fast))
		o.values["katara.append_drift_ms"] = median(durationsMS(drift))
		o.values["katara.drift_share"] = float64(len(drift)) / float64(max(1, len(ops)))
		idleLayers(o.values, append([]string{"rdf.clone_ms"}, jobsLayers...)...)
	}
	fmt.Fprintf(cfg.log, "appends: %d timed, %d drifted to a full re-clean\n", len(ops), len(drift))
	return o, nil
}

// rowsPerSecond is rows cleaned per second of op time.
func rowsPerSecond(rows int, ops []time.Duration) float64 {
	var total time.Duration
	for _, d := range ops {
		total += d
	}
	if total <= 0 {
		return 0
	}
	return float64(rows) / total.Seconds()
}

// overheadShare is how much slower the traced replay's median op is than the
// untraced median op of the same work.
func overheadShare(traced, untraced []time.Duration) float64 {
	u := median(durationsMS(untraced))
	if u == 0 {
		return 0
	}
	return median(durationsMS(traced))/u - 1
}
