package similarity

import (
	"math/bits"
	"unicode/utf8"
)

// This file is the verify step of Index lookups: the composite score
// max(Jaro-Winkler, Levenshtein similarity, trigram Jaccard) of the query
// against one candidate entry. It runs once per candidate that clears the
// trigram filter — hundreds per lookup on realistic label sets — so it
// allocates nothing (every buffer lives in the lookup's pooled scratch),
// and it computes each term from the same integers as the naive scorers the
// tests keep as the reference (reference_test.go), so scores are
// bit-identical to theirs.
//
// A query that is ASCII and 1–64 runes long is verified on 64-bit words.
// peq[c] holds the query positions of ASCII rune c; a non-ASCII entry rune
// has none. Against such a query:
//
//   - Jaro's greedy matching, for an entry of at most 64 runes, is taken
//     from the entry side in one pass over the entry's runes (jaroMask):
//     entry rune b[j] takes the lowest unmatched query position in its
//     window, the lowest set bit of peq[b[j]] & window(j) &^ matchedQ. The
//     textbook scan goes the other way (each query rune takes the first
//     unmatched entry position in its window), and both build the same
//     matching. A match pairs only equal runes, so each rune's positions
//     form a bipartite graph of their own, and a position x's window
//     [x−w, x+w] is an interval whose ends never move left as x grows. Let
//     i* be the first query position with any partner and j* the first
//     entry position ≥ i*−w (at most i*+w, since i* has a partner). The
//     query-side greedy pairs i* with j*. The entry-side greedy does too:
//     i* lies in j*'s window, and no query position before i* has a
//     partner; an entry position before j* lies below i*−w, so its partners
//     could only be query positions before i*, and it has none. No position
//     before i* or j* can be matched later by either greedy, so both recurse
//     on the same two suffixes and build the same matching: the same count
//     m, the same matched runes, and so the same transpositions (matched
//     query runes in query order against matched entry runes in entry
//     order). Longer entries keep the scan.
//   - Levenshtein similarity 1 − d/M (M the longer length) can only change
//     the result when d ≤ limit = ⌊(1 − bound)·M⌋ + 1, bound =
//     max(threshold, Jaro-Winkler, Jaccard); the general path's banded DP
//     returns d when d ≤ limit and limit+1 otherwise, and the score only
//     tests d ≤ limit. Jaro's matching often proves d > limit for free: an
//     alignment of cost d pairs at least M − d equal runes, every pair
//     within |i − j| ≤ d of each other, and no position twice. When
//     limit ≤ w, an alignment of cost d ≤ limit is thus a matching in
//     Jaro's window graph, whose maximum is m: each greedy above is a
//     maximum matching, because the windows' ends never move left (an
//     exchange argument). So M − m > limit with limit ≤ w proves d > limit,
//     and d is not computed.
//   - Otherwise d is exact, by Myers' bit-vector algorithm (JACM 1999) in
//     Hyyrö's global form: the query is the pattern, one bit per DP row,
//     and shifting a 1 into the horizontal +1 deltas (Ph<<1 | 1) starts
//     each column from row 0's D[0][j] = j; d is D[0][n] = n plus the last
//     column's vertical deltas. The exact d takes the banded DP's branch
//     and gives the same 1 − d/M.
//
// A non-ASCII query, or one over 64 runes, takes the general path: the
// textbook Jaro scan, and a Levenshtein DP confined to the diagonal band
// |i − j| ≤ k that runs only when 1 − d/M can reach bound, i.e.
// d ≤ (1 − bound)·M. With k = ⌊(1 − bound)·M⌋ + 1 (one cell of slack for
// float rounding) the band returns the exact d when d ≤ k and "more than
// k" otherwise; when |la − lb| > k it does not run at all.

// kernel is the verify working set. Buffers grow to the longest string seen
// and are reused across candidates and lookups.
type kernel struct {
	q, v    []rune  // the query (decoded once per lookup) and the current entry
	seq     []rune  // general path: query runes Jaro matched, in query order
	matched []bool  // general path: entry positions already matched
	rows    []int32 // general path: two banded Levenshtein DP rows
	// masked: the query is ASCII and 1–64 runes, so peq serves it; built:
	// peq holds the query's positions. peq is built at the first candidate
	// that reaches verify and cleared by clearQuery, so it is all-zero
	// between lookups, and a lookup that verifies nothing pays nothing for
	// it.
	masked, built bool
	peq           [utf8.RuneSelf]uint64
}

// setQuery sets the lookup's query, decoded to runes.
func (k *kernel) setQuery(q []rune) {
	k.q = append(k.q[:0], q...)
	k.masked = len(q) >= 1 && len(q) <= 64
	for _, c := range q {
		if c >= utf8.RuneSelf {
			k.masked = false
		}
	}
}

// clearQuery resets the words of peq the query set.
func (k *kernel) clearQuery() {
	if !k.built {
		return
	}
	for _, c := range k.q {
		k.peq[c] = 0
	}
	k.built = false
}

// verify scores entry v (normalised, non-empty, unequal to the query)
// against the query set by setQuery.
func (k *kernel) verify(v string, jac, threshold float64) float64 {
	k.v = k.v[:0]
	for _, r := range v {
		k.v = append(k.v, r)
	}
	if k.masked && !k.built {
		for i, c := range k.q {
			k.peq[c] |= 1 << uint(i)
		}
		k.built = true
	}
	var m, t int
	if k.masked && len(k.v) <= 64 {
		m, t = k.jaroMask()
	} else {
		m, t = k.jaroScan()
	}
	return k.score(m, t, jac, threshold)
}

// score returns the composite similarity of k.q and k.v (unequal, both
// non-empty), given Jaro's match and transposition counts and the trigram
// Jaccard jac. Levenshtein similarity counts only when it could reach
// max(threshold, Jaro-Winkler, jac), and its distance is computed only when
// it could be within the limit that bound allows.
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
		var d int
		switch {
		case !k.masked:
			d = k.levenshteinWithin(limit)
		case limit <= max(m/2-1, 0) && m-matches > limit:
			d = limit + 1 // Jaro's matching proves d > limit
		default:
			d = k.myers()
		}
		if d <= limit {
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

// jaroMask is jaroScan for a masked query and an entry of at most 64
// runes, by the entry-side greedy on peq.
func (k *kernel) jaroMask() (matches, transpositions int) {
	a, b := k.q, k.v
	window := max(max(len(a), len(b))/2-1, 0)
	var mq, me uint64 // matched query and entry positions
	for j, c := range b {
		var eq uint64
		if uint32(c) < utf8.RuneSelf {
			eq = k.peq[uint32(c)]
		}
		// Query positions [lo, hi): shifts of 64 or more yield 0, so hi ≥ 64
		// gives an all-ones upper mask and lo ≥ 64 an empty window.
		lo, hi := max(j-window, 0), j+window+1
		win := (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
		cand := eq & win &^ mq
		mq |= cand & -cand
		me |= (cand | -cand) >> 63 << uint(j)
	}
	matches = bits.OnesCount64(mq)
	for ; mq != 0; mq, me = mq&(mq-1), me&(me-1) {
		// A nonzero x has bit 31 set in x | −x: no branch per matched pair.
		x := uint32(a[bits.TrailingZeros64(mq)] ^ b[bits.TrailingZeros64(me)])
		transpositions += int((x | -x) >> 31)
	}
	return matches, transpositions
}

// myers returns the edit distance of a masked query k.q and k.v.
func (k *kernel) myers() int {
	pv, mv := ^uint64(0), uint64(0) // the column's +1 and −1 vertical deltas
	for _, c := range k.v {
		var eq uint64
		if uint32(c) < utf8.RuneSelf {
			eq = k.peq[uint32(c)]
		}
		xv := eq | mv
		xh := ((eq & pv) + pv) ^ pv | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	rows := uint64(1)<<uint(len(k.q)) - 1 // the query's rows; 64 shifts to all ones
	return len(k.v) + bits.OnesCount64(pv&rows) - bits.OnesCount64(mv&rows)
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
