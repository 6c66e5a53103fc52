package similarity

import (
	"math/bits"
	"unicode/utf8"
)

// This file is the verify step of Index lookups: the composite score
// max(Jaro-Winkler, Levenshtein similarity, trigram Jaccard) of the query
// against one candidate entry. It runs once per candidate that clears the
// trigram filter — hundreds per lookup on realistic label sets — so it
// allocates nothing (every buffer lives in the lookup's pooled scratch) and
// skips work that cannot change the result, while computing each term with
// the textbook expressions so scores are bit-identical to the naive scorers
// the tests keep as the reference (reference_test.go):
//
//   - Jaro's greedy matching, when query and entry are both ASCII and the
//     entry has at most 64 runes, is a position-mask walk: for query rune
//     a[i], the lowest set bit of pos[a[i]] & window &^ matched is exactly
//     the entry position j the left-to-right scan would pick. Other entries
//     keep the scan.
//   - Levenshtein similarity 1 − d/m can only change the result when it
//     reaches bound = max(threshold, Jaro-Winkler, Jaccard), i.e. when
//     d ≤ (1 − bound)·m. A DP confined to the diagonal band |i − j| ≤ k,
//     k = ⌊(1 − bound)·m⌋ + 1 (one cell of slack for float rounding), returns
//     the exact d when d ≤ k and "more than k" otherwise; when |la − lb| > k
//     it does not run at all.

// kernel is the verify working set. Buffers grow to the longest string seen
// and are reused across candidates and lookups.
type kernel struct {
	q, v    []rune  // the query (decoded once per lookup) and the current entry
	qASCII  bool    // the query is all ASCII
	seq     []rune  // query runes Jaro matched, in query order
	matched []bool  // scan path: entry positions already matched
	rows    []int32 // two banded Levenshtein DP rows
	// Mask path: the entry positions of each ASCII rune, all-zero between
	// candidates.
	pos [utf8.RuneSelf]uint64
}

// verify scores entry v (normalised, non-empty, unequal to the query)
// against the query decoded into k.
func (k *kernel) verify(v string, jac, threshold float64) float64 {
	k.v = k.v[:0]
	for _, r := range v {
		k.v = append(k.v, r)
	}
	var m, t int
	if k.qASCII && len(v) <= 64 && isASCII(v) {
		m, t = k.jaroMask()
	} else {
		m, t = k.jaroScan()
	}
	return k.score(m, t, jac, threshold)
}

// isASCII reports whether s is all 7-bit bytes, so each byte is a rune
// below utf8.RuneSelf.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// score returns the composite similarity of k.q and k.v (unequal, both
// non-empty), given Jaro's match and transposition counts and the trigram
// Jaccard jac. Levenshtein runs only when its similarity could reach
// max(threshold, Jaro-Winkler, jac), within the band that bound allows.
func (k *kernel) score(matches, transpositions int, jac, threshold float64) float64 {
	a, b := k.q, k.v
	la, lb := len(a), len(b)
	j := 0.0
	if matches > 0 {
		m := float64(matches)
		t := float64(transpositions) / 2
		j = (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
	}
	prefix := 0
	for prefix < la && prefix < lb && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	s := j + float64(prefix)*0.1*(1-j)

	bound := max(s, jac)
	if threshold > bound {
		bound = threshold
	}
	if bound <= 1 { // a wild threshold above 1 filters the hit anyway
		m := max(la, lb)
		limit := int((1-bound)*float64(m)) + 1
		if d := k.levenshteinWithin(limit); d <= limit {
			if l := 1 - float64(d)/float64(m); l > s {
				s = l
			}
		}
	}
	if jac > s {
		s = jac
	}
	return s
}

// jaroScan is Jaro's greedy matching as the textbook scan: each query
// rune takes the first unmatched equal entry rune within the window.
// It returns the match and transposition counts.
func (k *kernel) jaroScan() (matches, transpositions int) {
	a, b := k.q, k.v
	window := max(max(len(a), len(b))/2-1, 0)
	if cap(k.matched) < len(b) {
		k.matched = make([]bool, len(b))
	}
	matched := k.matched[:len(b)]
	clear(matched)
	seq := k.seq[:0]
	for i, c := range a {
		for j := max(i-window, 0); j < min(i+window+1, len(b)); j++ {
			if !matched[j] && b[j] == c {
				matched[j] = true
				seq = append(seq, c)
				break
			}
		}
	}
	j := 0
	for _, c := range seq {
		for !matched[j] {
			j++
		}
		if b[j] != c {
			transpositions++
		}
		j++
	}
	k.seq = seq
	return len(seq), transpositions
}

// jaroMask is jaroScan for an ASCII query and an ASCII entry of at most 64
// runes.
func (k *kernel) jaroMask() (matches, transpositions int) {
	a, b := k.q, k.v
	for j, c := range b {
		k.pos[c] |= 1 << uint(j)
	}
	window := max(max(len(a), len(b))/2-1, 0)
	var matched uint64
	seq := k.seq[:0]
	for i, c := range a {
		lo, hi := max(i-window, 0), min(i+window+1, len(b))
		// Bits [lo, hi): shifts of 64 or more yield 0, so hi = 64 gives an
		// all-ones upper mask and lo >= hi an empty window.
		win := (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
		if cand := k.pos[c] & win &^ matched; cand != 0 {
			matched |= 1 << uint(bits.TrailingZeros64(cand))
			seq = append(seq, c)
		}
	}
	for _, c := range b {
		k.pos[c] = 0
	}
	for _, c := range seq {
		if b[bits.TrailingZeros64(matched)] != c {
			transpositions++
		}
		matched &= matched - 1
	}
	k.seq = seq
	return len(seq), transpositions
}

// levenshteinWithin returns the edit distance of k.q and k.v when it is at
// most limit, and limit+1 otherwise. Only DP cells with |i − j| ≤ limit are
// computed: a cell outside the band costs more than limit to reach, so
// substituting limit+1 for it changes no distance within the limit.
func (k *kernel) levenshteinWithin(limit int) int {
	a, b := k.q, k.v
	la, lb := len(a), len(b)
	if la-lb > limit || lb-la > limit {
		return limit + 1
	}
	over := int32(limit + 1)
	if cap(k.rows) < 2*(lb+1) {
		k.rows = make([]int32, 2*(lb+1))
	}
	prev, cur := k.rows[:lb+1], k.rows[lb+1:2*(lb+1)]
	for j := range prev {
		prev[j] = min(int32(j), over)
	}
	for i := 1; i <= la; i++ {
		lo, hi := max(1, i-limit), min(lb, i+limit)
		// The cell left of the band: the first column, or out of band.
		cur[lo-1] = over
		if lo == 1 {
			cur[0] = min(int32(i), over)
		}
		rowMin := cur[lo-1]
		c := a[i-1]
		for j := lo; j <= hi; j++ {
			d := prev[j-1]
			if b[j-1] != c {
				d++
			}
			d = min(d, prev[j]+1, cur[j-1]+1)
			cur[j] = d
			rowMin = min(rowMin, d)
		}
		if hi < lb {
			cur[hi+1] = over // the next row's band reaches one column further
		}
		if rowMin >= over {
			return limit + 1
		}
		prev, cur = cur, prev
	}
	return int(min(prev[lb], over))
}
