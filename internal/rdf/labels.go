package rdf

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"katara/internal/similarity"
)

// This file implements label handling: every resource may carry one or more
// rdfs:label literals; table cell values are resolved to resources through
// exact (normalised) lookup or the fuzzy trigram index, mirroring the
// paper's LARQ/Lucene setup with threshold 0.7.

// LabelsOf returns the label strings of x.
func (s *Store) LabelsOf(x ID) []string {
	objs := s.Objects(x, s.LabelID)
	out := make([]string, 0, len(objs))
	for _, o := range objs {
		if s.IsLiteral(o) {
			out = append(out, s.Term(o).Value)
		}
	}
	return out
}

// LabelOf returns the first label of x, or a human-readable fallback derived
// from the IRI (§5.1: strip the text before the last slash and punctuation).
func (s *Store) LabelOf(x ID) string {
	if ls := s.LabelsOf(x); len(ls) > 0 {
		return ls[0]
	}
	return DisplayName(s.Term(x).Value)
}

// displaySpaces turns IRI word separators into spaces. A Replacer is safe
// for concurrent use and builds its lookup table once, so it is shared.
var displaySpaces = strings.NewReplacer("_", " ", "#", " ")

// DisplayName derives a readable name from an IRI per §5.1.
func DisplayName(iri string) string {
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		iri = iri[i+1:]
	}
	if i := strings.LastIndexByte(iri, ':'); i >= 0 {
		iri = iri[i+1:]
	}
	return strings.TrimSpace(displaySpaces.Replace(iri))
}

// LabelMatch is a fuzzy label resolution hit.
type LabelMatch struct {
	Resource ID
	Score    float64
}

// MatchLabel resolves value to resources whose label is similar at or above
// threshold, best match first. Exact matches score 1. The returned slice may
// be shared with a frozen layer's memo, and so with every store reading that
// layer; callers must not mutate it.
func (s *Store) MatchLabel(value string, threshold float64) []LabelMatch {
	return s.MatchLabelNorm(similarity.Normalize(value), threshold)
}

// MatchLabelNorm is MatchLabel for an already-normalised value. The resolve
// cache keys its memo on Normalize(value) and used to pay for a second
// normalisation inside the miss path; this entry point reuses its result.
// Shared slice; read-only.
//
// Each layer the store reads answers its part: a frozen layer (the base of
// a written share, or the own layer of a shared store) from its memo, any
// other by lookup. A written share merges its base's hits with its own
// layer's, which holds only the labels it added: a candidate's score
// depends only on the query and the candidate's label, never on the rest
// of the index, so the merge is exactly the lookup of one index holding
// both.
func (s *Store) MatchLabelNorm(norm string, threshold float64) []LabelMatch {
	own := s.layer.matchLabel(norm, threshold, s.shared.Load())
	if s.base == nil {
		return own
	}
	return mergeMatches(s.base.matchLabel(norm, threshold, true), own)
}

// MatchLabelSince brings prior, MatchLabelNorm's answer for norm at
// threshold when LabelGen was gen, up to the store's current generation: it
// merges in the hits among the labels indexed since, which are the fuzzy
// entries from gen on (see Store.labelGen), base's and then the own
// layer's. The result is exactly MatchLabelNorm's current answer, for the
// reason the layer merge is: labels are only ever added, and a candidate's
// score depends only on the query and its label. prior is returned as it
// is when no new label matches. Shared slice; read-only.
func (s *Store) MatchLabelSince(norm string, threshold float64, gen uint64, prior []LabelMatch) []LabelMatch {
	from := int32(gen)
	if s.base != nil {
		nb := int32(s.base.fuzzy.Len())
		if from < nb {
			prior = mergeMatches(prior, s.base.lookupLabel(norm, threshold, from))
		}
		from = max(from-nb, 0)
	}
	return mergeMatches(prior, s.layer.lookupLabel(norm, threshold, from))
}

// maxLabelMemo bounds a frozen layer's memo. A full memo is cleared
// wholesale, as the resolve cache flushes; one pass of the 30 WebTables
// jobs over the Yago-shaped KB memoises about 1.7K queries.
const maxLabelMemo = 1 << 16

// labelMemo memoises a frozen layer's fuzzy lookups. A frozen layer is
// never written again, so its answer to a query is a pure function of the
// normalised value and the threshold for the layer's lifetime. Every store
// reading the layer shares the memo, so its lock is held only for map
// reads and writes, never for a lookup.
type labelMemo struct {
	mu     sync.Mutex
	m      map[labelQuery][]LabelMatch
	resets int64
}

type labelQuery struct {
	norm      string
	threshold float64
}

// matchLabel returns the layer's hits for norm, folded to the best score
// per resource and sorted. A frozen layer answers from its memo, except at
// a threshold that is NaN (never equal to itself as a key) or outside
// (0, 1].
func (l *layer) matchLabel(norm string, threshold float64, frozen bool) []LabelMatch {
	if l.fuzzy.Len() == 0 {
		return nil
	}
	if !frozen || !(threshold > 0 && threshold <= 1) {
		return l.lookupLabel(norm, threshold, 0)
	}
	q := labelQuery{norm, threshold}
	memo := l.memo
	memo.mu.Lock()
	out, ok := memo.m[q]
	memo.mu.Unlock()
	if ok {
		return out
	}
	out = l.lookupLabel(norm, threshold, 0)
	memo.mu.Lock()
	if prior, ok := memo.m[q]; ok {
		out = prior // a racing reader memoised it first; keep one slice
	} else {
		if len(memo.m) >= maxLabelMemo {
			memo.m = nil
			memo.resets++
		}
		if memo.m == nil {
			memo.m = make(map[labelQuery][]LabelMatch)
		}
		memo.m[q] = out
	}
	memo.mu.Unlock()
	return out
}

// lookupLabel looks norm up among the layer's fuzzy entries from from on
// and folds the hits.
func (l *layer) lookupLabel(norm string, threshold float64, from int32) []LabelMatch {
	cands := l.fuzzy.LookupNormalizedFrom(norm, threshold, from)
	if len(cands) == 0 {
		return nil
	}
	best := make(map[ID]float64, len(cands))
	for _, c := range cands {
		if r := l.fuzzyIDs[c.ID]; c.Score > best[r] {
			best[r] = c.Score
		}
	}
	return sortedMatches(best)
}

// mergeMatches merges two layers' folded hits: the best score per resource.
// When one side is empty the other is returned as it is.
func mergeMatches(a, b []LabelMatch) []LabelMatch {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	best := make(map[ID]float64, len(a)+len(b))
	for _, ms := range [2][]LabelMatch{a, b} {
		for _, m := range ms {
			if m.Score > best[m.Resource] {
				best[m.Resource] = m.Score
			}
		}
	}
	return sortedMatches(best)
}

// sortedMatches orders the hits by score descending, then resource ID.
func sortedMatches(best map[ID]float64) []LabelMatch {
	out := make([]LabelMatch, 0, len(best))
	for r, sc := range best {
		out = append(out, LabelMatch{Resource: r, Score: sc})
	}
	slices.SortFunc(out, func(a, b LabelMatch) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Resource, b.Resource)
	})
	return out
}

// LabelMemo reports the memos of the layers s reads: the entries they hold
// and how many times a full memo was cleared. Only a frozen layer's memo is
// ever filled. A non-nil visit is called with a copy of each entry, taken
// under the memo's lock and visited after it is released; the matches are
// the memo's own slices, read-only.
func (s *Store) LabelMemo(visit func(norm string, threshold float64, matches []LabelMatch)) (entries int, resets int64) {
	type memoEntry struct {
		q  labelQuery
		ms []LabelMatch
	}
	var all []memoEntry
	for _, l := range [2]*layer{&s.layer, s.base} {
		if l == nil {
			continue
		}
		l.memo.mu.Lock()
		entries += len(l.memo.m)
		resets += l.memo.resets
		if visit != nil {
			for q, ms := range l.memo.m {
				all = append(all, memoEntry{q, ms})
			}
		}
		l.memo.mu.Unlock()
	}
	for _, e := range all {
		visit(e.q.norm, e.q.threshold, e.ms)
	}
	return entries, resets
}
