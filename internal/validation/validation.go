// Package validation implements KATARA's crowd-based pattern validation
// (§5): candidate patterns are decomposed into column-type and column-pair
// relationship variables, scores are normalised into a rank-stable
// probability distribution, and variables are validated in order of maximal
// entropy — the most-uncertain-variable-first (MUVF) schedule of Algorithm
// 3, justified by Theorem 1 (E[ΔH(φ)](v) = H(v)). The all-variables-
// independent (AVI) baseline of §7.2 is provided for comparison.
package validation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"katara/internal/crowd"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/table"
)

// Variable identifies one decomposed unit of a table pattern: the type of a
// column, or the relationship of an ordered column pair (§5.1).
type Variable struct {
	IsPair   bool
	Col      int // type variable: the column
	From, To int // relationship variable: the ordered pair
}

// String implements fmt.Stringer.
func (v Variable) String() string {
	if v.IsPair {
		return fmt.Sprintf("rel(%d,%d)", v.From, v.To)
	}
	return fmt.Sprintf("type(%d)", v.Col)
}

// Oracle supplies the ground truth the simulated crowd answers from.
// rdf.NoID means "none of the candidates is correct".
type Oracle interface {
	TrueType(col int) rdf.ID
	TrueRel(from, to int) rdf.ID
}

// Validator validates candidate patterns against a crowd.
type Validator struct {
	KB     *rdf.Store
	Table  *table.Table
	Crowd  *crowd.Crowd
	Oracle Oracle
	// QuestionsPerVariable is q in §7.2 (default 3).
	QuestionsPerVariable int
	// TuplesPerQuestion is k_t, the sample tuples shown per question
	// (default 5, §7.2).
	TuplesPerQuestion int
	// Rng drives tuple sampling (required for determinism).
	Rng *rand.Rand
	// Ctx bounds the crowd interaction (nil = context.Background()). When
	// the deadline or the crowd's budget is exhausted mid-validation, the
	// run degrades: the best pattern among the still-viable candidates is
	// returned and Result.Degraded is set.
	Ctx context.Context
	// Prov records each MUVF entropy step's evidence; nil disables.
	Prov *provenance.Recorder

	// Memo, when set, records each variable's plurality decision keyed on
	// (variable, candidate domain) — the full decision context of one
	// validate call. With Replay false the validator runs normally and
	// stores every decision it reaches; with Replay true it answers from
	// the memo WITHOUT consulting the crowd, and a lookup miss sets Missed
	// and aborts the run (the MUVF degrade path). Incremental cleaning uses
	// replay as its drift detector: re-running MUVF over freshly discovered
	// candidates purely from memoised decisions either reproduces the
	// validated pattern — proving the crowd's answers still pin it — or
	// misses, meaning the appended rows shifted a decision context and the
	// pattern must be re-validated live.
	Memo   *AnswerMemo
	Replay bool
	// Missed reports that a Replay run needed a decision the memo lacks.
	Missed bool

	ambCache map[[2]rdf.ID]float64
	extCache map[extKey][]uint64 // candidate -> its extension, see extension
}

// extKey names a candidate's extension: a type's instances, or a
// property's subjects when pair is set.
type extKey struct {
	id   rdf.ID
	pair bool
}

// AnswerMemo is a memo of crowd plurality decisions, keyed on the variable
// and the exact candidate domain it was decided over. Replaying from it
// assumes the crowd's plurality is a function of that context, and that is
// a known hole: the simulated crowds draw every answer from one shared rng
// stream (crowd.Worker.answer), and even a perfect worker errs with
// probability Difficulty, so a crowd that has already answered earlier
// runs' questions can decide a hard variable differently from the fresh
// crowd of a batch run. Keyed crowd randomness (an open ROADMAP item) would
// make the assumption hold; a noisy live crowd voids replay anyway, since
// even batch re-runs would diverge.
type AnswerMemo struct {
	m map[string]rdf.ID
}

// NewAnswerMemo returns an empty memo.
func NewAnswerMemo() *AnswerMemo { return &AnswerMemo{m: make(map[string]rdf.ID)} }

func memoKey(v Variable, domain []rdf.ID) string {
	var b strings.Builder
	b.WriteString(v.String())
	for _, id := range domain {
		fmt.Fprintf(&b, ",%d", id)
	}
	return b.String()
}

// errMemoMiss aborts a replay at the first decision the memo cannot answer.
var errMemoMiss = errors.New("validation: answer memo miss")

// recordStep records one validation iteration into the provenance recorder.
func (val *Validator) recordStep(v Variable, entropy float64, asked int, answer rdf.ID, degraded bool) {
	if !val.Prov.Enabled() {
		return
	}
	label := "none of the above"
	if degraded {
		label = "(degraded)"
	} else if answer != rdf.NoID {
		label = val.KB.LabelOf(answer)
	}
	val.Prov.RecordValidationStep(v.String(), entropy, asked, label, degraded)
}

func (v *Validator) ctx() context.Context {
	if v.Ctx != nil {
		return v.Ctx
	}
	return context.Background()
}

func (v *Validator) defaults() {
	if v.QuestionsPerVariable == 0 {
		v.QuestionsPerVariable = 3
	}
	if v.TuplesPerQuestion == 0 {
		v.TuplesPerQuestion = 5
	}
	if v.Rng == nil {
		v.Rng = rand.New(rand.NewSource(1))
	}
	if v.ambCache == nil {
		v.ambCache = make(map[[2]rdf.ID]float64)
		v.extCache = make(map[extKey][]uint64)
	}
}

// Result reports the outcome of a validation run.
type Result struct {
	Pattern            *pattern.Pattern
	VariablesValidated int
	QuestionsAsked     int
	// Degraded reports that validation was cut short by the deadline or
	// crowd budget and fell back to the best-scored viable pattern.
	Degraded bool
}

// Probabilities converts pattern scores into the rank-stable distribution
// of §5.2: Pr(φ=φi) = score(φi) / Σ score(φj).
func Probabilities(ps []*pattern.Pattern) []float64 {
	total := 0.0
	for _, p := range ps {
		if p.Score > 0 {
			total += p.Score
		}
	}
	out := make([]float64, len(ps))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(ps))
		}
		return out
	}
	for i, p := range ps {
		if p.Score > 0 {
			out[i] = p.Score / total
		}
	}
	return out
}

// Entropy returns H(X) = -Σ p log2 p for a distribution.
func Entropy(dist []float64) float64 {
	h := 0.0
	for _, p := range dist {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Variables returns the distinct variables appearing across the patterns,
// columns first, in deterministic order.
func Variables(ps []*pattern.Pattern) []Variable {
	colSet := map[int]bool{}
	pairSet := map[[2]int]bool{}
	for _, p := range ps {
		for _, n := range p.Nodes {
			if n.Type != rdf.NoID {
				colSet[n.Column] = true
			}
		}
		for _, e := range p.Edges {
			pairSet[[2]int{e.From, e.To}] = true
		}
	}
	cols := make([]int, 0, len(colSet))
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	pairs := make([][2]int, 0, len(pairSet))
	for pr := range pairSet {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var out []Variable
	for _, c := range cols {
		out = append(out, Variable{Col: c})
	}
	for _, pr := range pairs {
		out = append(out, Variable{IsPair: true, From: pr[0], To: pr[1]})
	}
	return out
}

// Assignment returns the value pattern p gives variable v (rdf.NoID when the
// pattern does not constrain v).
func Assignment(p *pattern.Pattern, v Variable) rdf.ID {
	if v.IsPair {
		if e := p.EdgeBetween(v.From, v.To); e != nil {
			return e.Prop
		}
		return rdf.NoID
	}
	return p.TypeOf(v.Col)
}

// VariableEntropy computes H(v) over the probability-weighted assignments
// of v across the patterns — by Theorem 1 this equals the expected
// uncertainty reduction of validating v.
func VariableEntropy(ps []*pattern.Pattern, probs []float64, v Variable) float64 {
	dist := map[rdf.ID]float64{}
	for i, p := range ps {
		dist[Assignment(p, v)] += probs[i]
	}
	// Sum in sorted-ID order: float addition is not associative, and map
	// iteration order would otherwise wobble the result by an ulp between
	// identical runs — enough to perturb the recorded lineage (and, on an
	// exact entropy tie, even the MUVF argmax).
	ids := make([]rdf.ID, 0, len(dist))
	for id := range dist {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vals := make([]float64, 0, len(ids))
	for _, id := range ids {
		vals = append(vals, dist[id])
	}
	return Entropy(vals)
}

// MUVF runs Algorithm 3: repeatedly validate the variable with maximal
// entropy until a single pattern remains. The input patterns are cloned;
// a "none of the above" answer removes the rejected node or edge from every
// candidate (the crowd established that no candidate assignment is right).
func (val *Validator) MUVF(ps []*pattern.Pattern) *Result {
	val.defaults()
	remaining := clonePatterns(ps)
	res := &Result{}
	validated := map[Variable]bool{}
	for len(remaining) > 1 {
		probs := Probabilities(remaining)
		vars := Variables(remaining)
		best, bestH := Variable{}, 0.0
		for _, v := range vars {
			if validated[v] {
				// A variable is asked at most once.
				continue
			}
			if h := VariableEntropy(remaining, probs, v); h > bestH {
				best, bestH = v, h
			}
		}
		if bestH == 0 {
			// All variables certain yet multiple patterns remain (identical
			// assignments): they are equivalent; return the top one.
			break
		}
		answer, asked, err := val.validate(best, remaining)
		res.QuestionsAsked += asked
		if err != nil {
			// Deadline or budget exhausted mid-validation: degrade to the
			// best-scored pattern among the candidates still standing.
			val.recordStep(best, bestH, asked, rdf.NoID, true)
			res.Degraded = true
			res.Pattern = bestOf(remaining)
			return res
		}
		val.recordStep(best, bestH, asked, answer, false)
		validated[best] = true
		res.VariablesValidated++
		remaining = filter(remaining, best, answer)
		if len(remaining) == 0 {
			// The crowd contradicted every candidate; fall back to the
			// full list's best pattern.
			remaining = clonePatterns(ps[:1])
		}
	}
	res.Pattern = bestOf(remaining)

	// Final sweep: every relationship asserted by the chosen pattern must
	// be crowd-approved before the pattern drives annotation. Uncertain
	// edges were already validated above; unanimous edges (all candidates
	// agreed) are verified here once, and refuted ones are stripped. Type
	// nodes are not swept — a wrong type merely fails per-tuple node checks,
	// which annotation recovers from, whereas a wrong edge condemns every
	// tuple.
	if res.Pattern != nil {
		for _, e := range append([]pattern.Edge(nil), res.Pattern.Edges...) {
			v := Variable{IsPair: true, From: e.From, To: e.To}
			if validated[v] {
				continue
			}
			validated[v] = true
			answer, asked, err := val.validate(v, []*pattern.Pattern{res.Pattern})
			res.QuestionsAsked += asked
			if err != nil {
				// Degrade: keep the pattern's remaining edges unverified.
				val.recordStep(v, 0, asked, rdf.NoID, true)
				res.Degraded = true
				return res
			}
			val.recordStep(v, 0, asked, answer, false)
			res.VariablesValidated++
			if answer != e.Prop {
				strip(res.Pattern, v)
				if answer != rdf.NoID {
					res.Pattern.Edges = append(res.Pattern.Edges,
						pattern.Edge{From: e.From, To: e.To, Prop: answer})
				}
			}
		}
	}
	return res
}

func clonePatterns(ps []*pattern.Pattern) []*pattern.Pattern {
	out := make([]*pattern.Pattern, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// AVI is the baseline of §7.2: it validates every variable independently —
// with no scheduling there is no notion of stopping early, which is exactly
// why MUVF saves questions (Table 4).
func (val *Validator) AVI(ps []*pattern.Pattern) *Result {
	val.defaults()
	remaining := clonePatterns(ps)
	res := &Result{}
	for _, v := range Variables(remaining) {
		answer, asked, err := val.validate(v, remaining)
		res.QuestionsAsked += asked
		if err != nil {
			res.Degraded = true
			break
		}
		res.VariablesValidated++
		if next := filter(remaining, v, answer); len(next) > 0 {
			remaining = next
		}
	}
	res.Pattern = bestOf(remaining)
	return res
}

// filter keeps patterns assigning value a to v. An answer of rdf.NoID
// ("none of the above") means no candidate assignment is right: the node or
// edge is removed from every pattern instead.
func filter(ps []*pattern.Pattern, v Variable, a rdf.ID) []*pattern.Pattern {
	if a == rdf.NoID {
		for _, p := range ps {
			strip(p, v)
		}
		return ps
	}
	var out []*pattern.Pattern
	for _, p := range ps {
		if Assignment(p, v) == a {
			out = append(out, p)
		}
	}
	return out
}

// strip removes the node or edge v refers to from p (in place). Rejecting a
// column's type also removes its incident edges: the column is no longer
// covered, and a relationship to an uncovered attribute is meaningless
// (Fig. 3) — leaving it would make every tuple fail the edge check.
func strip(p *pattern.Pattern, v Variable) {
	if v.IsPair {
		edges := p.Edges[:0]
		for _, e := range p.Edges {
			if !(e.From == v.From && e.To == v.To) {
				edges = append(edges, e)
			}
		}
		p.Edges = edges
		return
	}
	nodes := p.Nodes[:0]
	for _, n := range p.Nodes {
		if n.Column != v.Col {
			nodes = append(nodes, n)
		}
	}
	p.Nodes = nodes
	edges := p.Edges[:0]
	for _, e := range p.Edges {
		if e.From != v.Col && e.To != v.Col {
			edges = append(edges, e)
		}
	}
	p.Edges = edges
}

func bestOf(ps []*pattern.Pattern) *pattern.Pattern {
	if len(ps) == 0 {
		return nil
	}
	best := ps[0]
	for _, p := range ps[1:] {
		if p.Score > best.Score {
			best = p
		}
	}
	return best
}

// validate asks the crowd q questions about variable v and returns the
// plurality answer (rdf.NoID for "none of the above") plus the number of
// questions actually asked. A deadline or budget error aborts the variable;
// answers already collected for it are discarded (the caller degrades).
func (val *Validator) validate(v Variable, ps []*pattern.Pattern) (rdf.ID, int, error) {
	domain := domainOf(ps, v)
	if val.Memo != nil {
		key := memoKey(v, domain)
		if a, ok := val.Memo.m[key]; ok {
			return a, 0, nil
		}
		if val.Replay {
			val.Missed = true
			return rdf.NoID, 0, errMemoMiss
		}
	}
	truth := val.truthFor(v)
	options, truthIdx := val.renderOptions(domain, truth)
	difficulty := val.difficulty(domain, v)

	votes := map[int]int{}
	asked := 0
	for q := 0; q < val.QuestionsPerVariable; q++ {
		prompt := val.prompt(v, options)
		question := crowd.Question{
			Kind:       crowd.TypeValidation,
			Prompt:     prompt,
			Options:    options,
			Truth:      truthIdx,
			Difficulty: difficulty,
		}
		if v.IsPair {
			question.Kind = crowd.RelationshipValidation
		}
		a, err := val.Crowd.AskContext(val.ctx(), question)
		if err != nil {
			return rdf.NoID, asked, err
		}
		asked++
		votes[a]++
	}
	best, bestVotes := 0, -1
	for opt := 0; opt < len(options); opt++ {
		if votes[opt] > bestVotes {
			best, bestVotes = opt, votes[opt]
		}
	}
	answer := rdf.NoID
	if best != len(options)-1 { // not "none of the above"
		answer = domain[best]
	}
	if val.Memo != nil {
		val.Memo.m[memoKey(v, domain)] = answer
	}
	return answer, asked, nil
}

func domainOf(ps []*pattern.Pattern, v Variable) []rdf.ID {
	set := map[rdf.ID]bool{}
	for _, p := range ps {
		if a := Assignment(p, v); a != rdf.NoID {
			set[a] = true
		}
	}
	out := make([]rdf.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (val *Validator) truthFor(v Variable) rdf.ID {
	if val.Oracle == nil {
		return rdf.NoID
	}
	if v.IsPair {
		return val.Oracle.TrueRel(v.From, v.To)
	}
	return val.Oracle.TrueType(v.Col)
}

// renderOptions converts the domain into display labels (§5.1's URI →
// description lookup) plus the trailing "none of the above" option, and
// locates the ground truth. A truth value that is a *superclass or
// super-property* of a domain candidate counts as that candidate being
// acceptable only when equal; otherwise truth falls to "none".
func (val *Validator) renderOptions(domain []rdf.ID, truth rdf.ID) ([]string, int) {
	options := make([]string, 0, len(domain)+1)
	truthIdx := len(domain) // default: none of the above
	for i, id := range domain {
		options = append(options, val.KB.LabelOf(id))
		if id == truth {
			truthIdx = i
		}
	}
	options = append(options, "none of the above")
	return options, truthIdx
}

// difficulty models §5.1's ambiguity analysis: if the two most confusable
// candidates share fraction p of their instances, the chance that all k_t
// sampled values are ambiguous is p^k_t.
func (val *Validator) difficulty(domain []rdf.ID, v Variable) float64 {
	if len(domain) < 2 {
		return 0
	}
	maxOverlap := 0.0
	for i := 0; i < len(domain); i++ {
		for j := i + 1; j < len(domain); j++ {
			if ov := val.overlap(domain[i], domain[j], v.IsPair); ov > maxOverlap {
				maxOverlap = ov
			}
		}
	}
	return math.Pow(maxOverlap, float64(val.TuplesPerQuestion))
}

// overlap computes the Jaccard overlap of two candidates' extensions: type
// instances for type variables, subject entities for relationship variables.
// On term-ID bitsets it is popcount(A&B) / popcount(A|B): the same two
// integers, and so the same float, as a merge of the sorted lists.
func (val *Validator) overlap(a, b rdf.ID, isPair bool) float64 {
	key := [2]rdf.ID{a, b}
	if a > b {
		key = [2]rdf.ID{b, a}
	}
	if v, ok := val.ambCache[key]; ok {
		return v
	}
	setA, setB := val.extension(a, isPair), val.extension(b, isPair)
	if len(setA) < len(setB) {
		setA, setB = setB, setA
	}
	inter, union := 0, 0
	for i, w := range setB {
		inter += bits.OnesCount64(w & setA[i])
		union += bits.OnesCount64(w | setA[i])
	}
	for _, w := range setA[len(setB):] {
		union += bits.OnesCount64(w)
	}
	v := 0.0
	if union > 0 {
		v = float64(inter) / float64(union)
	}
	val.ambCache[key] = v
	return v
}

// extension returns a candidate's extension — the entities typed with it or
// any of its subclasses, or the subjects of a relationship — as a bitset
// over term IDs, long enough for its largest ID. It is built once per
// candidate, since every pair of a domain needs both extensions.
func (val *Validator) extension(id rdf.ID, isPair bool) []uint64 {
	key := extKey{id, isPair}
	if ext, ok := val.extCache[key]; ok {
		return ext
	}
	var ext []uint64
	add := func(x rdf.ID) {
		w := int(x >> 6)
		if w >= len(ext) {
			ext = append(ext, make([]uint64, w+1-len(ext))...)
		}
		ext[w] |= 1 << (x & 63)
	}
	kb := val.KB
	if isPair {
		kb.ForEachSubject(id, func(sub rdf.ID, _ []rdf.ID) { add(sub) })
	} else {
		for _, x := range kb.Subjects(kb.TypeID, id) {
			add(x)
		}
		for _, c := range kb.SubClasses(id) {
			for _, x := range kb.Subjects(kb.TypeID, c) {
				add(x)
			}
		}
	}
	val.extCache[key] = ext
	return ext
}

// prompt renders a §5.1-style question with k_t sampled tuples for context.
func (val *Validator) prompt(v Variable, options []string) string {
	var b strings.Builder
	if v.IsPair {
		fmt.Fprintf(&b, "What is the most accurate relationship for the highlighted columns %d and %d?\n",
			v.From, v.To)
	} else {
		fmt.Fprintf(&b, "What is the most accurate type of the highlighted column %d?\n", v.Col)
	}
	if val.Table != nil && val.Table.NumRows() > 0 {
		kt := val.TuplesPerQuestion
		for s := 0; s < kt; s++ {
			row := val.Table.Rows[val.Rng.Intn(val.Table.NumRows())]
			fmt.Fprintf(&b, "(%s)\n", strings.Join(row, ", "))
		}
	}
	fmt.Fprintf(&b, "Options: %s", strings.Join(options, " | "))
	return b.String()
}
