package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"katara/internal/rdf"
	"katara/internal/table"
)

// tinyConfig shrinks every workload to a second or less: a few thousand
// Person rows, three WebTables tables, two small appends.
func tinyConfig(t *testing.T, trace bool) config {
	cfg := defaultConfig()
	cfg.seconds = 200 * time.Millisecond
	cfg.trace = trace
	cfg.tmpDir = t.TempDir()
	cfg.setupReps = 1
	cfg.personRows = 4000
	cfg.webTables = 3
	cfg.appendRows = 64
	cfg.jobRate = 40
	return cfg
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer:\n file %+v\n code %+v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each reports every metric of its mode with its unit, that
// every op was correct, and (traced) that the layer-by-layer replay
// reproduced Clean's report on every traced op.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, trace)
				if trace {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value == 0 {
							t.Errorf("end-to-end metric %s is 0", d.Name)
						}
					}
					return
				}
				if cov := res.Metrics["trace.span_coverage"].Value; cov <= 0 || cov > 1 {
					t.Errorf("trace.span_coverage = %v, want in (0, 1]", cov)
				}
				if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("span file not written: %v", err)
				}
			})
		}
	}
}

// TestInputsDeterministic checks that a seed fixes the generated inputs
// byte for byte, and that another seed changes them.
func TestInputsDeterministic(t *testing.T) {
	person := func(seed int64) [32]byte {
		in := genPerson(deriveSeeds(seed), 2000)
		return inputDigest([]*table.Table{in.spec.Table}, []*rdf.Store{in.newKB().Store})
	}
	web := func(seed int64) [32]byte {
		in := genWeb(deriveSeeds(seed), 0)
		tables := make([]*table.Table, len(in.specs))
		for i, s := range in.specs {
			tables[i] = s.Table
		}
		return inputDigest(tables, []*rdf.Store{in.kb.Store})
	}
	for name, gen := range map[string]func(int64) [32]byte{"person": person, "web": web} {
		if gen(7) != gen(7) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestExactCountsRepeat checks that the exact end-to-end counts repeat
// across runs of one seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"person316k", "webtables"} {
		w, _ := findWorkload(name)
		var got []map[string]metricValue
		for i := 0; i < 2; i++ {
			res, err := runWorkload(w, tinyConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res.Metrics)
		}
		for _, m := range []string{"crowd_questions", "pattern_f1"} {
			if got[0][m] != got[1][m] {
				t.Errorf("%s %s: %v then %v", name, m, got[0][m], got[1][m])
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts exercises the A/B rule on synthetic runs.
func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	runs := func(base float64, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%3)
		}
		return xs
	}
	for _, c := range []struct {
		name   string
		xs, ys []float64
		want   string
	}{
		{"faster", runs(100, 1), runs(80, 1), "improved"},
		{"slower", runs(100, 1), runs(120, 1), "regressed"},
		{"same", runs(100, 1), runs(101, 1), "within bound"},
		{"noisy parent", runs(100, 30), runs(105, 30), "unresolved"},
		{"too few", runs(100, 1)[:5], runs(80, 1)[:5], "no verdict"},
	} {
		if got := compareMetric(lat, c.xs, c.ys).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// inputDigest hashes generated tables and KB triples, for the determinism
// test: the same seed must give byte-identical inputs.
func inputDigest(tables []*table.Table, kbs []*rdf.Store) [32]byte {
	h := sha256.New()
	for _, t := range tables {
		writeStrings(h, t.Name)
		writeStrings(h, t.Columns...)
		for _, r := range t.Rows {
			writeStrings(h, r...)
		}
	}
	for _, kb := range kbs {
		kb.ForEachTriple(func(tr rdf.Triple) {
			for _, id := range []rdf.ID{tr.S, tr.P, tr.O} {
				term := kb.Term(id)
				writeStrings(h, string(rune('0'+term.Kind)), term.Value)
			}
		})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// writeStrings writes length-prefixed strings, so concatenations never
// collide.
func writeStrings(h hash.Hash, ss ...string) {
	var n [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
}
