package rdf_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/workload"
	"katara/internal/world"
)

// yagoStore builds the Yago-shaped KB of world seed 1 (about 23K triples,
// 5.1K labels). The build is deterministic, so two builds intern the same
// terms at the same IDs: a second build is the store that never shared.
func yagoStore() *rdf.Store { return workload.YagoLike(world.New(1, world.Config{}), 1).Store }

// memoQueries returns every stride-th label of kb, normalised, each followed
// by two typo'd variants: its middle rune dropped, and its second and third
// runes swapped. A lookup on this KB costs about 0.3 ms at the thresholds
// the tests use, so they query a stride sample rather than every label.
func memoQueries(kb *rdf.Store, stride int) []string {
	var out []string
	for i, s := range kb.SubjectsWithPredicate(kb.LabelID) {
		if i%stride != 0 {
			continue
		}
		for _, l := range kb.LabelsOf(s) {
			n := similarity.Normalize(l)
			r := []rune(n)
			out = append(out, n)
			if len(r) >= 2 {
				out = append(out, string(r[:len(r)/2])+string(r[len(r)/2+1:]))
			}
			if len(r) >= 3 {
				r[1], r[2] = r[2], r[1]
				out = append(out, string(r))
			}
		}
	}
	return out
}

// mintNear writes labels near every fourth query, the way enrichment does:
// a new resource labelled with a one-letter extension of the query, the
// query itself on a second new resource, and a tagged variant on a resource
// that already carries the query's label, so its hits come from both
// layers of a written share.
func mintNear(kb *rdf.Store, queries []string, tag string) {
	for i := 0; i < len(queries); i += 4 {
		q := queries[i]
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:minted-%s-%d", tag, i)), rdf.IRI(rdf.IRILabel), rdf.Lit(q+"x"))
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:twin-%s-%d", tag, i)), rdf.IRI(rdf.IRILabel), rdf.Lit(q))
		if id := labeledNorm(kb, q); id != rdf.NoID {
			kb.Add(id, kb.LabelID, kb.Literal(q+" "+tag))
		}
	}
}

// labeledNorm returns the first resource with a label that normalises to
// norm, or NoID. It scans the labels rather than resolving, so it leaves the
// label memos untouched.
func labeledNorm(kb *rdf.Store, norm string) rdf.ID {
	for _, s := range kb.SubjectsWithPredicate(kb.LabelID) {
		for _, l := range kb.LabelsOf(s) {
			if similarity.Normalize(l) == norm {
				return s
			}
		}
	}
	return rdf.NoID
}

// answers resolves every query at threshold on kb.
func answers(kb *rdf.Store, queries []string, threshold float64) [][]rdf.LabelMatch {
	out := make([][]rdf.LabelMatch, len(queries))
	for i, q := range queries {
		out[i] = kb.MatchLabelNorm(q, threshold)
	}
	return out
}

// TestFrozenLabelMemoMatchesUnsharedStore: over the Yago-shaped KB, a
// sample of its labels and their typo'd variants resolve at thresholds 0.5,
// 0.7 and 0.9, twice each (the first pass fills the memo, the second hits
// it), on the frozen source of a CloneExact, an unwritten share, a written
// share that minted labels near the queries, and a share of that written
// share. Every answer equals the one of a store that never shared and made
// the same writes, and the second passes add no memo entry.
func TestFrozenLabelMemoMatchesUnsharedStore(t *testing.T) {
	ref, refWritten := yagoStore(), yagoStore()
	queries := memoQueries(ref, 32)
	mintNear(refWritten, queries, "w")

	src := yagoStore()
	unwritten := src.CloneExact()
	written := src.CloneExact()
	mintNear(written, queries, "w")
	stores := []struct {
		name     string
		kb       *rdf.Store
		unshared *rdf.Store
	}{
		{"frozen source", src, ref},
		{"unwritten share", unwritten, ref},
		{"written share", written, refWritten},
		{"share of the written share", written.CloneExact(), refWritten},
	}
	thresholds := []float64{0.5, 0.7, 0.9}
	want := map[*rdf.Store][][][]rdf.LabelMatch{}
	for _, u := range []*rdf.Store{ref, refWritten} {
		for _, th := range thresholds {
			want[u] = append(want[u], answers(u, queries, th))
		}
	}
	moved := 0
	for i := range want[ref] {
		for j := range queries {
			if !reflect.DeepEqual(want[ref][i][j], want[refWritten][i][j]) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("the minted labels change no answer; the check needs hits from both layers")
	}

	distinct := map[string]bool{}
	for _, q := range queries {
		distinct[q] = true
	}
	for _, s := range stores {
		for pass := 0; pass < 2; pass++ {
			for i, th := range thresholds {
				got := answers(s.kb, queries, th)
				for j, q := range queries {
					if w := want[s.unshared][i][j]; !reflect.DeepEqual(got[j], w) {
						t.Fatalf("%s, pass %d: MatchLabelNorm(%q, %v) = %v, an unshared store gives %v",
							s.name, pass, q, th, got[j], w)
					}
				}
			}
			if entries, _ := src.LabelMemo(nil); entries != len(distinct)*len(thresholds) {
				t.Fatalf("%s, pass %d: the source's memo holds %d entries, want one per query and threshold (%d)",
					s.name, pass, entries, len(distinct)*len(thresholds))
			}
		}
	}
}

// TestLabelMemoConcurrentShares: six goroutines each resolve a sample of
// labels and typo'd variants through their own share of one frozen store,
// all filling and reading its memo at once; every other share then writes
// labels near the queries and resolves them again. Every answer equals the
// one of a store that never shared and made the same writes.
func TestLabelMemoConcurrentShares(t *testing.T) {
	src := yagoStore()
	queries := memoQueries(src, 128)
	src.CloneExact()
	const workers, threshold = 6, 0.7
	ref := answers(yagoStore(), queries, threshold)
	written := make([][][]rdf.LabelMatch, workers)
	for g := 1; g < workers; g += 2 {
		kb := yagoStore()
		mintNear(kb, queries, fmt.Sprint(g))
		written[g] = answers(kb, queries, threshold)
	}
	check := func(g int, stage string, got, want [][]rdf.LabelMatch) {
		for j, q := range queries {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Errorf("worker %d, %s: MatchLabelNorm(%q) = %v, an unshared store gives %v", g, stage, q, got[j], want[j])
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			share := src.CloneExact()
			check(g, "fill", answers(share, queries, threshold), ref)
			if written[g] == nil {
				check(g, "hit", answers(share, queries, threshold), ref)
				return
			}
			mintNear(share, queries, fmt.Sprint(g))
			check(g, "after writing", answers(share, queries, threshold), written[g])
		}(g)
	}
	wg.Wait()
	if entries, _ := src.LabelMemo(nil); entries == 0 {
		t.Error("the shares left the frozen store's memo empty")
	}
}
