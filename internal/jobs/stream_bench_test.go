package jobs

import (
	"context"
	"testing"

	"katara"
	"katara/internal/telemetry"
	"katara/internal/workload"
	"katara/internal/world"
)

// BenchmarkJobStream runs WebTables jobs the way katarad runs them: one job
// at a time, each a cleaner built by buildCleaner on a CloneExact share of
// one pristine KB (newPristine over the Yago-shaped KB of world seed 7).
// An iteration is one pass over 30 tables.
//
//   - warm: every table ran once before timing, so the pristine KB's label
//     memo already holds every lookup the jobs make;
//   - cold: a fresh pristine KB per pass (built untimed), so only lookups
//     an earlier job of the same pass made are shared;
//   - foreign: as cold, with the 30 tables of world seed 8, whose values
//     this KB mostly does not know.
//
// Besides ns/job it reports, from the jobs' own Timings, the discover
// stage's ms/job and the resolver's misses/job: the misses stay the same
// whatever the memo holds, and the discover stage is where it saves.
func BenchmarkJobStream(b *testing.B) {
	const seed, tableSeed = 7, 308
	w := world.New(seed, world.Config{})
	kb := workload.YagoLike(w, seed).Store
	tables := func(w *world.World) []*katara.Table {
		var out []*katara.Table
		for _, spec := range workload.WebTables(w, tableSeed).Specs {
			out = append(out, spec.Table)
		}
		return out
	}
	own, foreign := tables(w), tables(world.New(seed+1, world.Config{}))
	p := Params{Workers: -1}

	pass := func(b *testing.B, pristine *katara.KB, tbls []*katara.Table) (discover, misses int64) {
		for _, tbl := range tbls {
			pipe := telemetry.New()
			rep, err := buildCleaner(pristine, p, pipe).CleanContext(context.Background(), tbl)
			if err != nil {
				b.Fatalf("clean of %s: %v", tbl.Name, err)
			}
			for _, st := range rep.Timings.Stages {
				if st.Stage == telemetry.StageDiscover.String() {
					discover += int64(st.Duration)
				}
			}
			misses += rep.Timings.Counter(telemetry.ResolverMisses.String())
		}
		return discover, misses
	}
	run := func(b *testing.B, tbls []*katara.Table, warm bool) {
		var pristine *katara.KB
		if warm {
			pristine = newPristine(kb)
			pass(b, pristine, tbls)
		}
		var discover, misses int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !warm {
				b.StopTimer()
				pristine = newPristine(kb)
				b.StartTimer()
			}
			d, m := pass(b, pristine, tbls)
			discover += d
			misses += m
		}
		jobs := float64(b.N * len(tbls))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/jobs, "ns/job")
		b.ReportMetric(float64(discover)/1e6/jobs, "discover-ms/job")
		b.ReportMetric(float64(misses)/jobs, "misses/job")
	}
	b.Run("warm", func(b *testing.B) { run(b, own, true) })
	b.Run("cold", func(b *testing.B) { run(b, own, false) })
	b.Run("foreign", func(b *testing.B) { run(b, foreign, false) })
}
