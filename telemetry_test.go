package katara

import (
	"math/rand"
	"reflect"
	"testing"

	"katara/internal/table"
	"katara/internal/workload"
	"katara/internal/world"
)

// TestCleanTableSkipsIndexConstruction is the regression test for the
// empty-rows repair path: an error-free table must not pay for instance-graph
// enumeration, observable through the graphs-enumerated counter.
func TestCleanTableSkipsIndexConstruction(t *testing.T) {
	kb, _ := figure1()
	tbl := NewTable("soccer", "A", "B", "C")
	tbl.Append("Rossi", "Italy", "Rome")
	tbl.Append("Pirlo", "Italy", "Rome")
	tbl.Append("Klate", "S. Africa", "Pretoria")

	c := NewCleaner(kb, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb}, Telemetry: true})
	report, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range report.Annotations {
		if a.Label == Erroneous {
			t.Fatalf("tuple %d unexpectedly erroneous", i)
		}
	}
	if report.Repairs == nil || len(report.Repairs) != 0 {
		t.Fatalf("Repairs = %v, want empty non-nil map", report.Repairs)
	}
	if report.Timings == nil {
		t.Fatal("Options.Telemetry set but Report.Timings is nil")
	}
	if got := report.Timings.Counter("graphs-enumerated"); got != 0 {
		t.Fatalf("error-free table enumerated %d instance graphs, want 0", got)
	}
	if got := report.Timings.Counter("tuples-annotated"); got != int64(tbl.NumRows()) {
		t.Fatalf("tuples-annotated = %d, want %d", got, tbl.NumRows())
	}
	if report.Timings.Counter("crowd-questions") == 0 {
		t.Fatal("crowd-questions counter stayed 0 despite crowd validation")
	}

	// Sanity check the counter itself: a table with an error must enumerate.
	kb2, dirty := figure1() // row 2 asserts Italy→Madrid, an error
	c2 := NewCleaner(kb2, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb2}, Telemetry: true})
	report2, err := c2.Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if got := report2.Timings.Counter("graphs-enumerated"); got == 0 {
		t.Fatal("dirty table enumerated no instance graphs")
	}
	if got := report2.Timings.Counter("repairs-generated"); got == 0 {
		t.Fatal("dirty table generated no repairs")
	}
	if len(report2.Timings.Stages) == 0 || report2.Timings.Total() <= 0 {
		t.Fatalf("stage timings missing: %+v", report2.Timings.Stages)
	}
}

// TestRepairOptionsReachTheEngine asserts the public repair knob actually
// arrives at the repair engine: RepairK bounds every erroneous row's ranked
// list, where the default (3) returns more than one candidate.
func TestRepairOptionsReachTheEngine(t *testing.T) {
	clean := func(k int) *Report {
		kb, dirty := figure1()
		report, err := NewCleaner(kb, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb}, RepairK: k}).Clean(dirty)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	if reps := clean(0).Repairs[2]; len(reps) < 2 { // t3: Madrid under Italy
		t.Fatalf("default RepairK ranked %d repairs for the erroneous row, want at least 2", len(reps))
	}
	report := clean(1)
	if len(report.Repairs) == 0 {
		t.Fatal("no repairs with RepairK: 1")
	}
	for row, reps := range report.Repairs {
		if len(reps) != 1 {
			t.Fatalf("row %d: %d repairs with RepairK: 1", row, len(reps))
		}
	}
}

// TestTelemetryOffByDefault pins the zero-cost default: without
// Options.Telemetry the report carries no Timings.
func TestTelemetryOffByDefault(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{FactOracle: fig1Oracle{kb}})
	report, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if report.Timings != nil {
		t.Fatalf("Timings = %v without Options.Telemetry", report.Timings)
	}
}

// workloadRun executes one full Clean over the synthetic workload with the
// given worker count. Everything is rebuilt from the seed each call: Clean
// enriches the KB and advances the crowd's rng, so runs must not share state.
func workloadRun(t *testing.T, seed int64, workers int) *Report {
	t.Helper()
	w := world.New(seed, world.Config{
		Persons: 150, Players: 60, Clubs: 12, Universities: 40, Films: 20, Books: 20,
	})
	kb := workload.DBpediaLike(w, seed)
	spec := workload.PersonTable(w, seed, 150)
	dirty := spec.Table.Clone()
	rng := rand.New(rand.NewSource(seed))
	if injected := table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, rng); len(injected) == 0 {
		t.Fatal("no errors injected")
	}
	cleaner := NewCleaner(kb.Store, NewCrowd(10, 0.97, seed), Options{
		ValidationOracle: workload.SpecOracle{Spec: spec, KB: kb},
		FactOracle:       workload.WorldOracle{W: w, KB: kb},
		Workers:          workers,
	})
	report, err := cleaner.Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestCleanWorkersDeterminism asserts the tentpole's contract: Clean with
// Workers N returns a Report identical to the serial run — same pattern,
// same labels, same crowd questions, same repairs — for every worker count.
func TestCleanWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	const seed = 7
	serial := workloadRun(t, seed, 1)
	for _, workers := range []int{2, 4, -1} {
		par := workloadRun(t, seed, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("Workers=%d: report differs from serial run", workers)
		}
	}
}
