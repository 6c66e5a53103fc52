package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"katara"
	"katara/internal/annotation"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/validation"
)

// span is one timed call into a layer, as written to the -trace-out JSONL
// file. Times are nanoseconds since the trace started; Parent 0 marks a
// root. AllocBytes is the process-wide /gc/heap/allocs:bytes delta over the
// span, so it is exact for sequential spans and shared between concurrent
// siblings (the per-shard spans of a fan-out).
type span struct {
	Op         int    `json:"op"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Layer      string `json:"layer"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the run ends. Span IDs are 1-based
// indexes into spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// newOp returns a fresh op ID.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span; end closes it. Both are safe from several goroutines.
func (t *tracer) begin(op, parent int, layer string) int {
	alloc := heapAllocs()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Layer: layer, StartNS: now, AllocBytes: alloc})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	alloc := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	s.AllocBytes = alloc - s.AllocBytes
}

// record adds a span measured elsewhere (the HTTP and job-status
// boundaries of service-webtables), with no allocation figure.
func (t *tracer) record(op, parent int, layer string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Op: op, ID: len(t.spans) + 1, Parent: parent, Layer: layer,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// wrap runs f inside a span.
func (t *tracer) wrap(op, parent int, layer string, f func()) {
	id := t.begin(op, parent, layer)
	f()
	t.end(id)
}

func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return time.Duration(s.EndNS - s.StartNS)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opProfile is one traced op, summarised from its spans: wall is the "op"
// root's duration, self its self time (wall minus the union of its children),
// layer the summed duration and allocation per layer span name.
type opProfile struct {
	wall, self time.Duration
	layer      map[string]time.Duration
	alloc      map[string]uint64
}

// profiles summarises every op that has an "op" root span. Spans of the op
// that are not nested under another layer span (the root's children, plus
// roots other than "op" such as a KB clone done before the op) count towards
// their layer; spans nested deeper (per-shard spans) only appear in the
// JSONL.
func (t *tracer) profiles() []opProfile {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int][]span{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	var out []opProfile
	for _, op := range ops {
		spans := byOp[op]
		var root *span
		for i := range spans {
			if spans[i].Layer == "op" {
				root = &spans[i]
			}
		}
		if root == nil {
			continue
		}
		p := opProfile{
			wall:  time.Duration(root.EndNS - root.StartNS),
			layer: map[string]time.Duration{},
			alloc: map[string]uint64{},
		}
		var children [][2]int64
		for _, s := range spans {
			if s.ID == root.ID || (s.Parent != 0 && s.Parent != root.ID) {
				continue
			}
			p.layer[s.Layer] += time.Duration(s.EndNS - s.StartNS)
			p.alloc[s.Layer] += s.AllocBytes
			if s.Parent == root.ID {
				children = append(children, [2]int64{s.StartNS, s.EndNS})
			}
		}
		p.self = p.wall - time.Duration(unionLength(children))
		out = append(out, p)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// allocLayers are the packages whose spans report allocated bytes.
var allocLayers = []string{"table", "kbstats", "discovery", "validation", "annotation", "repair"}

// layerMetrics turns traced op profiles into the per-layer time, allocation
// and coverage metrics: means over ops of each per-op figure, so the layer
// times and the untraced remainder add up to the mean traced op.
func layerMetrics(ps []opProfile, into map[string]float64) {
	perOp := func(f func(p opProfile) float64) float64 {
		if len(ps) == 0 {
			return 0
		}
		total := 0.0
		for _, p := range ps {
			total += f(p)
		}
		return total / float64(len(ps))
	}
	layerMS := func(name string) float64 {
		return perOp(func(p opProfile) float64 { return ms(p.layer[name]) })
	}
	for metric, layer := range map[string]string{
		"kbstats.build_ms":       "kbstats.build",
		"table.intern_ms":        "table.intern",
		"discovery.generate_ms":  "discovery.generate",
		"discovery.rankjoin_ms":  "discovery.rankjoin",
		"validation.muvf_ms":     "validation.muvf",
		"annotation.coverage_ms": "annotation.coverage",
		"annotation.decide_ms":   "annotation.decide",
		"repair.build_index_ms":  "repair.build_index",
		"repair.topk_ms":         "repair.topk",
		"rdf.clone_ms":           "rdf.clone",
		"rdf.snapshot_ms":        "rdf.snapshot",
	} {
		into[metric] = layerMS(layer)
	}
	for _, pkg := range allocLayers {
		into[pkg+".alloc_mib"] = perOp(func(p opProfile) float64 {
			var b uint64
			for layer, n := range p.alloc {
				if strings.HasPrefix(layer, pkg+".") {
					b += n
				}
			}
			return float64(b) / (1 << 20)
		})
	}
	into["katara.untraced_ms"] = perOp(func(p opProfile) float64 { return ms(p.self) })
	into["trace.span_coverage"] = perOp(func(p opProfile) float64 {
		if p.wall <= 0 {
			return 0
		}
		return 1 - float64(p.self)/float64(p.wall)
	})
}

// trustAll is the job server's fact policy (no FactOracle): every fact the
// KB lacks is taken as KB incompleteness.
type trustAll struct{}

func (trustAll) TypeHolds(string, rdf.ID) bool        { return true }
func (trustAll) RelHolds(string, rdf.ID, string) bool { return true }

// replayInput is one Clean to replay layer by layer.
type replayInput struct {
	kb      *rdf.Store
	tbl     *table.Table
	vo      validation.Oracle // nil: trust the top-ranked pattern
	fo      annotation.FactOracle
	maxRows int
}

// replayCounts are the exact per-op counts the replay reads from the
// layers' public stats.
type replayCounts struct {
	signatures, candidates        int
	resolveHits, resolveMisses    int64
	validationQuestions           int
	crowd                         crowd.Stats
	graphs, topkCalls, considered int
}

// replayClean re-runs Cleaner.Clean's pipeline (runClean in shard.go) by
// calling each layer's entry point from here, in runClean's order, with the
// options Clean resolves by default and the same shard fan-out, and wraps
// every call in a span under root. The caller checks that the returned
// report equals Clean's on the same input: that check is what keeps the
// trace measuring the same work.
func replayClean(tr *tracer, op, root int, in replayInput) (*katara.Report, replayCounts, error) {
	const (
		topK, repairK, qpv, tpq = 10, 3, 3, 5
		validationSeed          = 1
	)
	threshold := similarity.DefaultThreshold
	n := fanoutN()
	t, kb := in.tbl, in.kb
	var cnt replayCounts
	c := katara.TrustingCrowd()

	var stats *kbstats.Stats
	var resolver *resolve.Cache
	tr.wrap(op, root, "kbstats.build", func() {
		stats = kbstats.New(kb)
		resolver = resolve.New(kb, threshold)
	})
	var interned *table.Interned
	tr.wrap(op, root, "table.intern", func() { interned = t.Interned() })
	cnt.signatures = interned.NumGroups()

	var cands *discovery.Candidates
	tr.wrap(op, root, "discovery.generate", func() {
		dopts := discovery.Options{Threshold: threshold, MaxRows: in.maxRows, Resolver: resolver}
		if n > 1 {
			cands = discovery.GenerateParallel(t, stats, dopts, n)
		} else {
			cands = discovery.Generate(t, stats, dopts)
		}
	})
	for _, col := range cands.Columns {
		cnt.candidates += len(col.Types)
	}
	for _, pr := range cands.Pairs {
		cnt.candidates += len(pr.Rels)
	}
	var candidates []*pattern.Pattern
	tr.wrap(op, root, "discovery.rankjoin", func() { candidates = discovery.TopK(cands, topK) })
	if len(candidates) == 0 {
		return nil, cnt, katara.ErrNoPattern
	}

	c.ResetStats()
	rep := &katara.Report{}
	p := candidates[0]
	if in.vo != nil {
		tr.wrap(op, root, "validation.muvf", func() {
			v := &validation.Validator{
				KB: kb, Table: t, Crowd: c, Oracle: in.vo,
				QuestionsPerVariable: qpv, TuplesPerQuestion: tpq,
				Rng: rand.New(rand.NewSource(validationSeed)), Ctx: context.Background(),
			}
			res := v.MUVF(candidates)
			p, cnt.validationQuestions = res.Pattern, res.QuestionsAsked
			rep.Degraded.PatternFallback = res.Degraded
		})
	}

	ann := &annotation.Annotator{
		KB: kb, Pattern: p, Crowd: c, Oracle: in.fo, Ctx: context.Background(),
		Degrade: annotation.DegradeTrustKB, Threshold: threshold, Enrich: true,
		Workers: n, Resolver: resolver, Interned: interned,
	}
	var res *annotation.Result
	if groups := interned.NumGroups(); n <= 1 || groups < 2*n {
		tr.wrap(op, root, "annotation.decide", func() { res = ann.Annotate(t) })
	} else {
		matches := make([]*pattern.Match, t.NumRows())
		id := tr.begin(op, root, "annotation.coverage")
		kb.WarmClosures()
		fanOut(tr, op, id, "annotation.coverage", groups, n, func(lo, hi int) {
			ann.EvaluateCoverageGroups(t, interned.Groups(), lo, hi, matches, nil)
		})
		tr.end(id)
		tr.wrap(op, root, "annotation.decide", func() { res = ann.AnnotateWith(t, matches) })
	}

	if len(p.Edges) > 0 {
		rep.Repairs = map[int][]katara.Repair{}
		if errs := res.Errors(); len(errs) > 0 {
			var ix *repair.Index
			tr.wrap(op, root, "repair.build_index", func() {
				ix = repair.BuildIndex(kb, p, repair.Options{Workers: n})
			})
			cnt.graphs = ix.NumGraphs()
			id := tr.begin(op, root, "repair.topk")
			cnt.topkCalls, cnt.considered = rankRepairs(tr, op, id, ix, t, interned, errs, repairK, n, rep.Repairs)
			tr.end(id)
		}
	}

	rep.Pattern = p
	rep.Annotations = res.Tuples
	rep.NewFacts = res.NewFacts
	rep.Degraded.Tuples = res.DegradedTuples
	rep.Crowd = c.Stats()
	rep.QuestionsAsked = rep.Crowd.Questions
	cnt.crowd = rep.Crowd
	cnt.resolveHits, cnt.resolveMisses = resolver.Stats()
	return rep, cnt, nil
}

// dedupRows keeps the first row of each distinct signature among rows, in
// order: repair ranking runs once per erroneous signature.
func dedupRows(in *table.Interned, rows []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		if g := in.GroupOf(r); !seen[g] {
			seen[g] = true
			out = append(out, r)
		}
	}
	return out
}

// rankRepairs ranks one representative row per erroneous signature, fanned
// out like runClean's repair stage under the span parent, and fills out for
// every erroneous row. It returns the number of TopKStats calls and their
// summed "considered" figure.
func rankRepairs(tr *tracer, op, parent int, ix *repair.Index, t *table.Table, in *table.Interned, errs []int, k, n int, out map[int][]katara.Repair) (calls, considered int) {
	lookup := dedupRows(in, errs)
	ranked := make([][]katara.Repair, len(lookup))
	perCall := make([]int, len(lookup))
	rank := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ranked[i], perCall[i] = ix.TopKStats(t.Rows[lookup[i]], k)
		}
	}
	if n > 1 && len(lookup) >= 2 {
		fanOut(tr, op, parent, "repair.topk", len(lookup), n, rank)
	} else {
		rank(0, len(lookup))
	}
	byGroup := make(map[int][]katara.Repair, len(lookup))
	for i, r := range lookup {
		byGroup[in.GroupOf(r)] = ranked[i]
		considered += perCall[i]
	}
	for _, r := range errs {
		out[r] = byGroup[in.GroupOf(r)]
	}
	return len(lookup), considered
}

// fanOut splits [0, units) into at most shards contiguous near-equal ranges
// (runClean's shardRanges) and runs f on each in its own goroutine, each in
// a "<layer>.shard" span under parent.
func fanOut(tr *tracer, op, parent int, layer string, units, shards int, f func(lo, hi int)) {
	if shards > units {
		shards = units
	}
	base, extra := units/shards, units%shards
	var wg sync.WaitGroup
	lo := 0
	for i := 0; i < shards; i++ {
		size := base
		if i < extra {
			size++
		}
		hi := lo + size
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			tr.wrap(op, parent, layer+".shard", func() { f(lo, hi) })
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// fanoutN is the shard and worker count the library derives from fanout.
func fanoutN() int {
	if fanout < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return fanout
}

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuWindow measures the GC share of CPU time between its start and share.
type cpuWindow struct{ gc0, total0 float64 }

func startCPUWindow() cpuWindow {
	gc, total := gcCPU()
	return cpuWindow{gc, total}
}

func (w cpuWindow) gcShare() float64 {
	gc, total := gcCPU()
	if total <= w.total0 {
		return 0
	}
	return (gc - w.gc0) / (total - w.total0)
}

// sameReport reports whether a replayed report equals the reference under
// enc, with the first differing line for the log.
func sameReport(enc func(*katara.Report) []byte, want, got *katara.Report) (bool, string) {
	a, b := enc(want), enc(got)
	if string(a) == string(b) {
		return true, ""
	}
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return false, fmt.Sprintf("line %d: want %q, got %q", i+1, al[i], bl[i])
		}
	}
	return false, fmt.Sprintf("want %d lines, got %d", len(al), len(bl))
}
