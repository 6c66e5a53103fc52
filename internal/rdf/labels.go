package rdf

import (
	"cmp"
	"slices"
	"strings"

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
			out = append(out, s.terms[o].Value)
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
	return DisplayName(s.terms[x].Value)
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

// ResourcesLabeled returns the resources whose normalised label equals the
// normalised value. Shared slice; read-only.
func (s *Store) ResourcesLabeled(value string) []ID {
	return s.labelIndex[similarity.Normalize(value)]
}

// ResourcesLabeledNorm is ResourcesLabeled for an already-normalised value —
// for callers that hold a Normalize result (the resolve cache keys on one)
// and must not recompute it per probe. Shared slice; read-only.
func (s *Store) ResourcesLabeledNorm(norm string) []ID {
	return s.labelIndex[norm]
}

// LabelMatch is a fuzzy label resolution hit.
type LabelMatch struct {
	Resource ID
	Score    float64
}

// MatchLabel resolves value to resources whose label is similar at or above
// threshold, best match first. Exact matches score 1.
func (s *Store) MatchLabel(value string, threshold float64) []LabelMatch {
	return s.MatchLabelNorm(similarity.Normalize(value), threshold)
}

// MatchLabelNorm is MatchLabel for an already-normalised value. The resolve
// cache keys its memo on Normalize(value) and used to pay for a second
// normalisation inside the miss path; this entry point reuses its result.
func (s *Store) MatchLabelNorm(norm string, threshold float64) []LabelMatch {
	cands := s.fuzzy.LookupNormalized(norm, threshold)
	if len(cands) == 0 {
		return nil
	}
	best := make(map[ID]float64, len(cands))
	for _, c := range cands {
		r := s.fuzzyIDs[c.ID]
		if c.Score > best[r] {
			best[r] = c.Score
		}
	}
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
