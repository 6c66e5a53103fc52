package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// populatedSnapshot builds a snapshot with every metric family exercised:
// counters, nested stages, and histograms with multi-bucket spreads.
func populatedSnapshot() *Snapshot {
	p := New()
	p.Add(CrowdQuestions, 14)
	p.Add(KBLookups, 900)
	p.Inc(ResolverHits)
	p.Inc(ResolverMisses)
	for _, s := range []Stage{StageDiscover, StageValidate, StageAnnotate} {
		p.EndStage(s, p.StartStage(s))
	}
	rs := p.StartStage(StageRepair)
	p.EndStage(StageBuildIndex, p.StartStage(StageBuildIndex))
	p.EndStage(StageRepair, rs)
	for i := 1; i <= 50; i++ {
		p.hists[HistCrowdQuestion].Record(time.Duration(i) * time.Millisecond)
		p.hists[HistResolverLookup].Record(time.Duration(i*i) * time.Nanosecond)
	}
	p.hists[HistAnnotateTuple].Record(3 * time.Microsecond)
	return p.Snapshot()
}

func TestWritePromPassesLint(t *testing.T) {
	var buf bytes.Buffer
	snap := populatedSnapshot()
	if err := snap.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition fails its own linter: %v\n%s", err, out)
	}
	// The acceptance contract: every counter at a stable name, all five
	// stages, and every histogram family present even when sparse.
	for _, want := range []string{
		"katara_crowd_questions_total 14",
		"katara_kb_lookups_total 900",
		"katara_graphs_enumerated_total 0", // zero counters still exposed
		`katara_stage_duration_seconds_total{stage="discover"}`,
		`katara_stage_runs_total{stage="build-index"} 1`,
		`katara_op_duration_seconds_bucket{op="crowd-question",le="+Inf"} 50`,
		`katara_op_duration_seconds_count{op="crowd-question"} 50`,
		`katara_op_duration_seconds_count{op="repair-topk"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	counters := strings.Count(out, "Pipeline counter ") // one HELP line per counter family
	if counters < 12 {
		t.Errorf("exposition declares %d counter families, want >= 12", counters)
	}
	for _, stage := range []string{"discover", "validate", "annotate", "build-index", "repair"} {
		if !strings.Contains(out, `{stage="`+stage+`"}`) {
			t.Errorf("exposition missing stage %q", stage)
		}
	}
	for _, op := range []string{"crowd-question", "rank-join-iteration", "annotate-tuple", "repair-topk", "resolver-lookup"} {
		if !strings.Contains(out, `op="`+op+`"`) {
			t.Errorf("exposition missing histogram op %q", op)
		}
	}
}

func TestWritePromNilAndEmpty(t *testing.T) {
	var nilSnap *Snapshot
	var buf bytes.Buffer
	if err := nilSnap.WriteProm(&buf); err != nil {
		t.Fatalf("nil WriteProm: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil snapshot wrote %q", buf.String())
	}
	// An untouched pipeline's snapshot — what /metrics serves before a run
	// starts — must still be a parseable exposition with the full metric set.
	buf.Reset()
	if err := New().Snapshot().WriteProm(&buf); err != nil {
		t.Fatalf("zero WriteProm: %v", err)
	}
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("zero exposition fails lint: %v\n%s", err, buf.String())
	}
	// A bare empty Snapshot literal has no samples at all, and the strict
	// linter calls that out — it is not a valid scrape page.
	buf.Reset()
	if err := (&Snapshot{}).WriteProm(&buf); err != nil {
		t.Fatalf("empty WriteProm: %v", err)
	}
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "no samples") {
		t.Fatalf("bare empty snapshot should lint as sample-less, got %v", err)
	}
}

func TestLintExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty", "", "no samples"},
		{"comments only", "# HELP x y\n# TYPE x counter\n", "no samples"},
		{"bad metric name", "2foo 1\n", "invalid metric name"},
		{"sample without value", "foo\n", "without value"},
		{"unparseable value", "foo bar\n", "unparseable sample value"},
		{"bad timestamp", "foo 1 notatime\n", "unparseable timestamp"},
		{"too many fields", "foo 1 2 3\n", "expected value"},
		{"unterminated labels", `foo{a="b" 1` + "\n", "unterminated"},
		{"bad label name", `foo{2a="b"} 1` + "\n", "invalid label name"},
		{"unquoted label value", "foo{a=b} 1\n", "not quoted"},
		{"duplicate label", `foo{a="1",a="2"} 1` + "\n", "duplicate label"},
		{"bad escape", `foo{a="\q"} 1` + "\n", "invalid escape"},
		{"unterminated quote", `foo{a="b} 1` + "\n", "unterminated"},
		{"unknown type", "# TYPE foo widget\nfoo 1\n", "unknown metric type"},
		{"duplicate type", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n", "duplicate TYPE"},
		{
			"type after samples",
			"foo 1\n# TYPE foo counter\n",
			"after its samples",
		},
		{
			"bucket without le",
			"# TYPE h histogram\nh_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
			"without le label",
		},
		{
			"le not increasing",
			"# TYPE h histogram\n" +
				`h_bucket{le="2"} 1` + "\n" +
				`h_bucket{le="1"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\n" +
				"h_count 2\n",
			"not increasing",
		},
		{
			"non-cumulative buckets",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\n" +
				"h_count 5\n",
			"decreasing",
		},
		{
			"missing +Inf bucket",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				"h_count 5\n",
			"no le=\"+Inf\"",
		},
		{
			"+Inf below prior cumulative",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="+Inf"} 3` + "\n" +
				"h_count 5\n",
			"below prior cumulative",
		},
		{
			"+Inf disagrees with count",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\n" +
				"h_count 7\n",
			"!= _count",
		},
		{
			"unparseable le",
			"# TYPE h histogram\n" +
				`h_bucket{le="wide"} 5` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\n" +
				"h_count 5\n",
			"unparseable le",
		},
		{"malformed TYPE comment", "# TYPE foo\nfoo 1\n", "malformed TYPE"},
		{"malformed HELP comment", "# HELP 2foo desc\nfoo 1\n", "malformed HELP"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := LintExposition(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("linter accepted malformed input:\n%s", c.in)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestLintExpositionAcceptsValid(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"untyped sample", "foo 1\n"},
		{"special floats", "a +Inf\nb -Inf\nc NaN\n"},
		{"timestamped", "foo 1 1712345678901\n"},
		{"bare comment", "# just a note\nfoo 1\n"},
		{"escaped label value", `foo{path="C:\\data\"x\"\n"} 1` + "\n"},
		{
			"two histogram series",
			"# TYPE h histogram\n" +
				`h_bucket{op="a",le="1"} 2` + "\n" +
				`h_bucket{op="a",le="+Inf"} 2` + "\n" +
				`h_count{op="a"} 2` + "\n" +
				`h_bucket{op="b",le="0.5"} 1` + "\n" +
				`h_bucket{op="b",le="+Inf"} 4` + "\n" +
				`h_count{op="b"} 4` + "\n" +
				`h_sum{op="b"} 0.25` + "\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := LintExposition(strings.NewReader(c.in)); err != nil {
				t.Fatalf("linter rejected valid input: %v\n%s", err, c.in)
			}
		})
	}
}
