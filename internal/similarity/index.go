package similarity

import (
	"cmp"
	"slices"
	"sync"
	"unicode/utf8"
)

// Index is a trigram inverted index over a set of strings, used for fuzzy
// label lookup: given a query, it retrieves candidate ids whose indexed
// string shares trigrams with the query, then verifies each candidate with
// the composite score (kernel.go). This is the stand-in for the paper's
// Lucene (LARQ) index.
//
// Lookup is the hot path of entity resolution: every pipeline stage funnels
// cell values through it (directly or via the resolve cache), so it runs on
// reusable per-call scratch — an int32 count buffer indexed by id plus byte
// encoded trigram windows — instead of the per-call maps a naive
// implementation would allocate. Add and Lookup share the same windowed
// trigram walk, so both deduplicate trigrams once and the filter bound in
// Lookup counts distinct shared trigrams.
type Index struct {
	postings map[string][]int32 // trigram -> ids in insertion (= ascending) order
	values   []string           // id -> normalised string
	gramN    []int32            // id -> number of distinct padded trigrams
	exact    map[string][]int32 // normalised string -> ids
	pool     sync.Pool          // *scratch, reused across Lookup/Add calls
}

// scratch is the reusable per-call working set. counts is kept all-zero
// between calls (entries touched by a lookup are reset before release), so a
// pooled scratch only pays for growth, never for clearing.
type scratch struct {
	counts  []int32     // candidate id -> shared distinct trigrams
	touched []int32     // ids with counts[id] != 0, for sparse reset
	hits    []Candidate // the lookup's hits, copied out at their final count
	runes   []rune      // padded rune window of the current string
	gram    []byte      // UTF-8 encoding of the current trigram window
	kern    kernel      // the verify kernel's buffers
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{
		postings: make(map[string][]int32),
		exact:    make(map[string][]int32),
	}
	ix.pool.New = func() any { return &scratch{} }
	return ix
}

// appendPadded appends the padded rune form of n ("  n ") to dst, mirroring
// the padding of trigrams.
func appendPadded(dst []rune, n string) []rune {
	dst = append(dst, ' ', ' ')
	for _, r := range n {
		dst = append(dst, r)
	}
	return append(dst, ' ')
}

// dupWindow reports whether the trigram window at i repeats an earlier
// window. Strings are short, so the quadratic scan beats allocating a set.
func dupWindow(runes []rune, i int) bool {
	for j := 0; j < i; j++ {
		if runes[j] == runes[i] && runes[j+1] == runes[i+1] && runes[j+2] == runes[i+2] {
			return true
		}
	}
	return false
}

// encodeGram UTF-8-encodes the trigram window into dst. The resulting byte
// slice is used for map access via string(dst), which the compiler performs
// without allocating.
func encodeGram(dst []byte, w []rune) []byte {
	dst = utf8.AppendRune(dst[:0], w[0])
	dst = utf8.AppendRune(dst, w[1])
	return utf8.AppendRune(dst, w[2])
}

// Add indexes s and returns its id. The caller keeps the id↔payload mapping.
func (ix *Index) Add(s string) int32 {
	id := int32(len(ix.values))
	n := Normalize(s)
	ix.values = append(ix.values, n)
	ix.exact[n] = append(ix.exact[n], id)
	sc := ix.pool.Get().(*scratch)
	sc.runes = appendPadded(sc.runes[:0], n)
	distinct := int32(0)
	for i := 0; i+3 <= len(sc.runes); i++ {
		if dupWindow(sc.runes, i) {
			continue
		}
		distinct++
		sc.gram = encodeGram(sc.gram, sc.runes[i:i+3])
		ix.postings[string(sc.gram)] = append(ix.postings[string(sc.gram)], id)
	}
	ix.gramN = append(ix.gramN, distinct)
	ix.pool.Put(sc)
	return id
}

// Len returns the number of indexed strings.
func (ix *Index) Len() int { return len(ix.values) }

// Candidate is a fuzzy lookup hit.
type Candidate struct {
	ID    int32
	Score float64
}

// LookupNormalizedFrom returns the ids from on whose strings match n, a
// Normalize result, at or above threshold, best first; ties break by
// ascending id, so the order is deterministic. Exact (post-normalisation)
// matches are always returned with score 1. Callers hold the normalised form
// (the resolve cache keys on it); Normalize is idempotent (pinned by
// FuzzSimilarityLookup).
//
// The filter bound and a candidate's score depend only on the query and that
// candidate, so the floor from drops the older ids and changes nothing else;
// posting lists and exact-match lists are in ascending id order, so the
// older ids are skipped by binary search, not visited. The rdf store passes
// from to look up only the labels indexed since a given generation.
//
// Safe for concurrent use while the index is quiescent (no Add in flight),
// matching the store-wide single-writer contract.
func (ix *Index) LookupNormalizedFrom(n string, threshold float64, from int32) []Candidate {
	sc := ix.pool.Get().(*scratch)
	// Count shared distinct trigrams per candidate; a candidate matching at
	// Jaccard threshold t over a query trigram set of size Q must share at
	// least ceil(t/(1+t) * Q) trigrams — a standard filter bound. We use a
	// looser floor to keep recall high for the non-Jaccard scorers.
	if len(sc.counts) < len(ix.values) {
		sc.counts = make([]int32, len(ix.values))
	}
	sc.runes = appendPadded(sc.runes[:0], n)
	qGrams := int32(0)
	for i := 0; i+3 <= len(sc.runes); i++ {
		if dupWindow(sc.runes, i) {
			continue
		}
		qGrams++
		sc.gram = encodeGram(sc.gram, sc.runes[i:i+3])
		for _, id := range since(ix.postings[string(sc.gram)], from) {
			if sc.counts[id] == 0 {
				sc.touched = append(sc.touched, id)
			}
			sc.counts[id]++
		}
	}
	// Hits collect in the scratch, so the result is allocated once at its
	// final length, and a miss allocates nothing.
	for _, id := range since(ix.exact[n], from) {
		sc.hits = append(sc.hits, Candidate{ID: id, Score: 1})
	}
	minShared := max(qGrams/4, 1)
	// Decode the query once for the verify kernel: its runes are the padded
	// window's interior.
	sc.kern.setQuery(sc.runes[2 : len(sc.runes)-1])
	for _, id := range sc.touched {
		shared := sc.counts[id]
		sc.counts[id] = 0
		v := ix.values[id]
		if shared < minShared || v == n || n == "" || v == "" {
			continue // below the filter bound, already emitted as exact, or empty
		}
		// The trigram Jaccard term comes from the posting counts: shared
		// distinct trigrams over the union of both distinct-trigram sets.
		jac := float64(shared) / float64(qGrams+ix.gramN[id]-shared)
		if s := sc.kern.verify(v, jac, threshold); s >= threshold {
			sc.hits = append(sc.hits, Candidate{ID: id, Score: s})
		}
	}
	sc.kern.clearQuery()
	var out []Candidate
	if len(sc.hits) > 0 {
		sortCandidates(sc.hits)
		out = slices.Clone(sc.hits)
	}
	sc.touched, sc.hits = sc.touched[:0], sc.hits[:0]
	ix.pool.Put(sc)
	return out
}

// since returns the suffix of ids, which ascend, from the first id at least
// from on.
func since(ids []int32, from int32) []int32 {
	if from <= 0 {
		return ids
	}
	i, _ := slices.BinarySearch(ids, from)
	return ids[i:]
}

// sortCandidates orders hits best first, ties by ascending id — a total
// order, since ids are distinct.
func sortCandidates(out []Candidate) {
	slices.SortFunc(out, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
