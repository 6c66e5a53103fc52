package propcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"katara"
	"katara/internal/rdf"
	"katara/internal/table"
)

// checkIncremental is the incremental ≡ batch differential: a session that
// Cleans a prefix and Appends the rest — in one or several increments, across
// parallelism/dedup configurations — must produce the same cumulative report
// as one batch Clean of the merged table; and a session that absorbs a KB
// delta via ApplyKBDelta must match a rebuild from the merged KB. Reports are
// compared on CanonicalSemantic: replaying the validation memo legitimately
// asks fewer crowd questions than a batch MUVF pass, so question counts are
// the one sanctioned difference — annotations, facts, repairs and degradation
// must be identical. Intermediate increments may fail with ErrNoPattern (a
// prefix can lack the support the full table has); the chain must still
// converge to the batch result once all rows are in.
func checkIncremental(sc *Scenario, res *SeedResult, base *katara.Report) error {
	n := sc.Dirty.NumRows()
	if n < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(sc.Seed*1013 + 7))
	semWant := CanonicalSemantic(base)

	// Split sets: one random interior cut, plus a three-segment chain when
	// the table is big enough to hold two distinct cuts.
	mid := 1 + rng.Intn(n-1)
	splitSets := [][]int{{mid}}
	if n >= 3 {
		a := 1 + rng.Intn(n-2)
		b := a + 1 + rng.Intn(n-a-1)
		splitSets = append(splitSets, []int{a, b})
	}

	for _, cfg := range []RunConfig{
		{Workers: 1},
		{Workers: 4, Telemetry: true},
		{Workers: 1, DedupOff: true},
	} {
		for _, splits := range splitSets {
			res.Configs++
			got, err := runIncrementalChain(sc, sc.Dirty, cfg, splits, nil, -1)
			if err != nil {
				return fmt.Errorf("append chain %s splits=%v: %w", cfg, splits, err)
			}
			if g := CanonicalSemantic(got); !bytes.Equal(semWant, g) {
				return fmt.Errorf("append chain %s splits=%v: cumulative report differs from batch\n%s",
					cfg, splits, canonicalDiff(semWant, g))
			}
		}
	}

	// KB-delta differential: ApplyKBDelta on a finished session vs a batch
	// run whose KB was merged before cleaning. Every delta re-cleans from
	// the session's merged snapshot; the three shapes differ in what the
	// delta can reach: a fresh label on an existing subject (no cell
	// matches it), a label on a brand-new subject matching a table cell (a
	// new term, aliasing a cell value), and a non-label triple.
	cases := kbDeltaCases(sc, rng)
	for _, dc := range cases {
		res.Configs++
		cl, _ := sc.NewCleaner(RunConfig{Workers: 1}, true, nil)
		if _, err := cl.Clean(sc.Dirty); err != nil {
			return fmt.Errorf("kb-delta %s: session clean: %w", dc.name, err)
		}
		got, gerr := cl.ApplyKBDelta(dc.adds)
		ocl, _ := sc.NewCleaner(RunConfig{Workers: 1}, false, dc.adds)
		want, werr := ocl.Clean(sc.Dirty)
		if err := sameOutcome(want, werr, got, gerr); err != nil {
			return fmt.Errorf("kb-delta %s diverged from merged-KB rebuild: %w", dc.name, err)
		}
		if gerr != nil {
			continue
		}
		if w, g := CanonicalSemantic(want), CanonicalSemantic(got); !bytes.Equal(w, g) {
			return fmt.Errorf("kb-delta %s: report differs from merged-KB rebuild\n%s",
				dc.name, canonicalDiff(w, g))
		}
	}

	// Mixed chain: Clean(prefix) → ApplyKBDelta → Append(rest) must equal one
	// batch Clean of the full table under the merged KB.
	if len(cases) > 0 {
		res.Configs++
		adds := cases[0].adds
		got, err := runIncrementalChain(sc, sc.Dirty, RunConfig{Workers: 1}, []int{mid}, adds, 0)
		if err != nil {
			return fmt.Errorf("mixed chain split=%d: %w", mid, err)
		}
		ocl, _ := sc.NewCleaner(RunConfig{Workers: 1}, false, adds)
		want, werr := ocl.Clean(sc.Dirty)
		if werr != nil {
			return fmt.Errorf("mixed chain oracle: %w", werr)
		}
		if w, g := CanonicalSemantic(want), CanonicalSemantic(got); !bytes.Equal(w, g) {
			return fmt.Errorf("mixed chain split=%d: report differs from merged batch\n%s",
				mid, canonicalDiff(w, g))
		}
	}
	return nil
}

// runIncrementalChain cleans the first segment of dirty under cfg with an
// incremental session, then appends the remaining segments one increment at a
// time; splits are interior cut row indexes in ascending order. When adds is
// non-empty it is applied via ApplyKBDelta after segment addAfter. Segment
// failures other than ErrNoPattern abort; a final ErrNoPattern is returned to
// the caller. On success the cumulative report covers the whole table.
func runIncrementalChain(sc *Scenario, dirty *table.Table, cfg RunConfig, splits []int, adds []katara.KBAddition, addAfter int) (*katara.Report, error) {
	cl, _ := sc.NewCleaner(cfg, true, nil)
	cuts := append(append([]int{0}, splits...), dirty.NumRows())
	var rep *katara.Report
	var err error
	for i := 0; i+1 < len(cuts); i++ {
		seg := dirty.Rows[cuts[i]:cuts[i+1]]
		if i == 0 {
			prefix := table.New(dirty.Name, dirty.Columns...)
			for _, r := range seg {
				prefix.Append(r...)
			}
			rep, err = cl.Clean(prefix)
		} else {
			rep, err = cl.Append(seg)
		}
		if err != nil && !errors.Is(err, katara.ErrNoPattern) {
			return nil, fmt.Errorf("segment %d (rows %d:%d): %w", i, cuts[i], cuts[i+1], err)
		}
		if i == addAfter && len(adds) > 0 {
			rep, err = cl.ApplyKBDelta(adds)
			if err != nil && !errors.Is(err, katara.ErrNoPattern) {
				return nil, fmt.Errorf("kb delta after segment %d: %w", i, err)
			}
		}
	}
	return rep, err
}

// kbDeltaCase is one KB-delta differential: a named addition set of one
// shape (see kbDeltaCases).
type kbDeltaCase struct {
	name string
	adds []katara.KBAddition
}

// kbDeltaCases builds the seed's KB-delta addition sets. Subjects for the
// existing-subject cases are drawn from the pristine KB's labelled resources;
// the new-subject case labels a fresh IRI with a value sampled from the dirty
// table so the delta can actually touch cleaning decisions.
func kbDeltaCases(sc *Scenario, rng *rand.Rand) []kbDeltaCase {
	st := sc.KB.Store
	var iris []string
	for _, id := range st.SubjectsWithPredicate(st.LabelID) {
		if t := st.Term(id); t.Kind == rdf.Resource {
			iris = append(iris, t.Value)
		}
	}
	if len(iris) == 0 {
		return nil
	}
	existing := iris[rng.Intn(len(iris))]
	other := iris[rng.Intn(len(iris))]
	cell := sc.Dirty.Rows[rng.Intn(len(sc.Dirty.Rows))][rng.Intn(len(sc.Dirty.Columns))]
	return []kbDeltaCase{
		{name: "label-existing-subject", adds: []katara.KBAddition{
			{Subject: existing, Predicate: rdf.IRILabel, Object: fmt.Sprintf("zz-delta-label-%d", sc.Seed), Literal: true},
		}},
		{name: "label-new-subject", adds: []katara.KBAddition{
			{Subject: fmt.Sprintf("x:pc-delta-%d", sc.Seed), Predicate: rdf.IRILabel, Object: cell, Literal: true},
		}},
		{name: "non-label-triple", adds: []katara.KBAddition{
			{Subject: existing, Predicate: "x:pc-delta-rel", Object: other},
		}},
	}
}
