package similarity

import "sort"

// The naive scorers below are the reference implementation the lookup's
// verify kernel (kernel.go) is tested against: straightforward full-matrix
// Levenshtein, scan-based Jaro, set-based trigram Jaccard. They live in a
// test file so production has one scorer, and every kernel shortcut is
// checked for bit-identical scores against them.

// Levenshtein returns the edit distance between a and b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSim converts edit distance to a similarity in [0,1].
func LevenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for shared prefixes (scaling 0.1, max
// prefix 4), the standard parameterisation.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// trigrams returns the padded character trigrams of s.
func trigrams(s string) []string {
	padded := "  " + s + " "
	runes := []rune(padded)
	if len(runes) < 3 {
		return []string{string(runes)}
	}
	out := make([]string, 0, len(runes)-2)
	for i := 0; i+3 <= len(runes); i++ {
		out = append(out, string(runes[i:i+3]))
	}
	return out
}

// TrigramJaccard returns the Jaccard similarity of the trigram sets of a and b.
func TrigramJaccard(a, b string) float64 {
	ta, tb := trigrams(a), trigrams(b)
	set := make(map[string]uint8, len(ta))
	for _, g := range ta {
		set[g] |= 1
	}
	for _, g := range tb {
		set[g] |= 2
	}
	inter, union := 0, 0
	for _, v := range set {
		union++
		if v == 3 {
			inter++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Score is the composite similarity used for value↔label matching: strings
// are normalised, exact matches score 1, otherwise the maximum of
// Jaro-Winkler, Levenshtein similarity and trigram Jaccard.
func Score(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return 1
	}
	if na == "" || nb == "" {
		return 0
	}
	s := JaroWinkler(na, nb)
	if l := LevenshteinSim(na, nb); l > s {
		s = l
	}
	if t := TrigramJaccard(na, nb); t > s {
		s = t
	}
	return s
}

// Match reports whether a and b are similar at the default threshold,
// mirroring the paper's `t[A] ≈ label` predicate.
func Match(a, b string) bool {
	return Score(a, b) >= DefaultThreshold
}

// referenceLookup is Index.Lookup recomputed from the reference scorer over
// every stored value: exact (post-normalisation) matches score 1; any other
// value is a hit when it shares at least max(1, qGrams/4) distinct trigrams
// with the query — the lookup's filter bound — and Score reaches threshold. Hits are ordered best first, ties by ascending id: a
// stable sort by score alone over the id-ordered hits, so the oracle does
// not share the production comparator.
func referenceLookup(values []string, q string, threshold float64) []Candidate {
	n := Normalize(q)
	qset := gramSet(n)
	minShared := max(len(qset)/4, 1)
	var out []Candidate
	for id, v := range values {
		if v == n {
			out = append(out, Candidate{ID: int32(id), Score: 1})
			continue
		}
		shared := 0
		for g := range gramSet(v) {
			if qset[g] {
				shared++
			}
		}
		if shared < minShared {
			continue
		}
		if s := Score(n, v); s >= threshold {
			out = append(out, Candidate{ID: int32(id), Score: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// gramSet returns the distinct padded trigrams of s.
func gramSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, g := range trigrams(s) {
		out[g] = true
	}
	return out
}
