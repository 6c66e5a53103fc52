// Package similarity provides the string-matching substrate KATARA uses to
// align table cell values with knowledge-base labels.
//
// The paper relies on Jena LARQ (Lucene) with a 0.7 match threshold; this
// package reproduces that behaviour with a normalising tokenizer and a
// trigram inverted index for sub-linear fuzzy candidate lookup, whose hits are
// scored by a composite similarity (exact, Jaro-Winkler, Levenshtein, trigram
// Jaccard) in an allocation-free verify kernel.
package similarity

import (
	"strings"
	"unicode"
)

// DefaultThreshold mirrors the Lucene threshold used in the paper (§7).
const DefaultThreshold = 0.7

// Normalize canonicalises a string for matching: lower-case, collapse
// whitespace, strip punctuation except intra-word hyphens and periods used in
// abbreviations ("S. Africa" and "s africa" normalise identically).
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			lastSpace = false
		case unicode.IsSpace(r), r == '_', r == '-', r == '.', r == ',', r == '/':
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			// drop other punctuation entirely
		}
	}
	return strings.TrimRight(b.String(), " ")
}
