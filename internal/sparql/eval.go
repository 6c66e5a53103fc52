package sparql

import (
	"fmt"
	"sort"
	"strings"

	"katara/internal/rdf"
)

// Engine evaluates queries against an rdf.Store.
type Engine struct {
	store *rdf.Store
}

// NewEngine returns an engine over s.
func NewEngine(s *rdf.Store) *Engine { return &Engine{store: s} }

// Binding maps variable names to term IDs.
type Binding map[string]rdf.ID

// Result carries the outcome of a query.
type Result struct {
	Vars []string  // projected variables (Select)
	Rows []Binding // one binding per solution (Select)
	Bool bool      // Ask outcome
}

// Run parses and evaluates src.
func (e *Engine) Run(src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

// Eval evaluates a parsed query.
func (e *Engine) Eval(q *Query) (*Result, error) {
	bindings, err := e.evalNodes(q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}

	if q.Kind == Ask {
		return &Result{Bool: len(bindings) > 0}, nil
	}

	vars := q.Vars
	if len(vars) == 0 {
		vars = allVars(q.Where)
	}
	rows := project(bindings, vars, q.Distinct)
	sortRows(rows, vars)
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return &Result{Vars: vars, Rows: rows}, nil
}

// evalNodes threads a binding set through a group graph pattern.
func (e *Engine) evalNodes(nodes []Node, bindings []Binding) ([]Binding, error) {
	for _, n := range nodes {
		if len(bindings) == 0 {
			return nil, nil
		}
		var err error
		switch n := n.(type) {
		case TripleNode:
			var next []Binding
			for _, b := range bindings {
				matches, merr := e.matchPattern(n.Pattern, b)
				if merr != nil {
					return nil, merr
				}
				next = append(next, matches...)
			}
			bindings = next
		case FilterNode:
			bindings = e.applyFilter(n.Filter, bindings)
		default:
			err = fmt.Errorf("sparql: unknown pattern node %T", n)
		}
		if err != nil {
			return nil, err
		}
	}
	return bindings, nil
}

func (e *Engine) applyFilter(f Filter, bindings []Binding) []Binding {
	var out []Binding
	for _, b := range bindings {
		l, lok := e.resolveFilterTerm(f.Left, b)
		r, rok := e.resolveFilterTerm(f.Right, b)
		if !lok || !rok {
			continue
		}
		if (l == r) != f.Negated {
			out = append(out, b)
		}
	}
	return out
}

func (e *Engine) resolveFilterTerm(n NodeSpec, b Binding) (rdf.ID, bool) {
	switch n.Kind {
	case VarNode:
		id, ok := b[n.Value]
		return id, ok
	case IRINode:
		id := e.store.LookupTerm(rdf.IRI(n.Value))
		return id, id != rdf.NoID
	default:
		id := e.store.LookupTerm(rdf.Lit(n.Value))
		return id, id != rdf.NoID
	}
}

// allVars lists the variables of the triple patterns in nodes, in order of
// first appearance.
func allVars(nodes []Node) []string {
	var vars []string
	set := map[string]bool{}
	add := func(name string) {
		if name != "" && !set[name] {
			set[name] = true
			vars = append(vars, name)
		}
	}
	addPattern := func(pat Pattern) {
		if pat.Subject.Kind == VarNode {
			add(pat.Subject.Value)
		}
		for _, e := range pat.Path {
			add(e.Var)
		}
		if pat.Object.Kind == VarNode {
			add(pat.Object.Value)
		}
	}
	for _, n := range nodes {
		if n, ok := n.(TripleNode); ok {
			addPattern(n.Pattern)
		}
	}
	return vars
}

func project(bindings []Binding, vars []string, distinct bool) []Binding {
	rows := make([]Binding, 0, len(bindings))
	seen := map[string]bool{}
	var key strings.Builder
	for _, b := range bindings {
		row := make(Binding, len(vars))
		for _, v := range vars {
			if id, ok := b[v]; ok {
				row[v] = id
			}
		}
		if distinct {
			key.Reset()
			for _, v := range vars {
				fmt.Fprintf(&key, "%d|", row[v])
			}
			if seen[key.String()] {
				continue
			}
			seen[key.String()] = true
		}
		rows = append(rows, row)
	}
	return rows
}

func sortRows(rows []Binding, vars []string) {
	sort.Slice(rows, func(i, j int) bool {
		for _, v := range vars {
			a, b := rows[i][v], rows[j][v]
			if a != b {
				return a < b
			}
		}
		return false
	})
}

// node is a frontier element during path traversal.
type node struct {
	id rdf.ID
	b  Binding
}

// matchPattern returns the extensions of b that satisfy pat.
func (e *Engine) matchPattern(pat Pattern, b Binding) ([]Binding, error) {
	subjID, subjVar, ok := e.resolveNode(pat.Subject, b)
	if !ok {
		return nil, nil
	}
	objID, objVar, ok := e.resolveNode(pat.Object, b)
	if !ok {
		return nil, nil
	}

	switch {
	case subjID != rdf.NoID:
		frontier := []node{{id: subjID, b: b}}
		frontier, err := e.walk(pat.Path, frontier, true)
		if err != nil {
			return nil, err
		}
		return e.closeEnd(frontier, objID, objVar), nil
	case objID != rdf.NoID:
		// Walk backward with the reversed path.
		frontier := []node{{id: objID, b: b}}
		frontier, err := e.walk(reversePath(pat.Path), frontier, false)
		if err != nil {
			return nil, err
		}
		return e.closeEnd(frontier, rdf.NoID, subjVar), nil
	default:
		// Both ends unbound: enumerate candidate subjects from the first
		// path element, then walk forward.
		starts, err := e.enumerateStarts(pat.Path)
		if err != nil {
			return nil, err
		}
		var out []Binding
		for _, s := range starts {
			nb := cloneBinding(b)
			nb[subjVar] = s
			frontier, err := e.walk(pat.Path, []node{{id: s, b: nb}}, true)
			if err != nil {
				return nil, err
			}
			out = append(out, e.closeEnd(frontier, rdf.NoID, objVar)...)
		}
		return out, nil
	}
}

// resolveNode resolves a node spec under binding b. It returns the concrete
// ID if known (rdf.NoID otherwise), the variable name if unbound, and
// whether the pattern can match at all (a constant absent from the store
// cannot).
func (e *Engine) resolveNode(n NodeSpec, b Binding) (rdf.ID, string, bool) {
	switch n.Kind {
	case VarNode:
		if id, ok := b[n.Value]; ok {
			return id, "", true
		}
		return rdf.NoID, n.Value, true
	case IRINode:
		id := e.store.LookupTerm(rdf.IRI(n.Value))
		return id, "", id != rdf.NoID
	default:
		id := e.store.LookupTerm(rdf.Lit(n.Value))
		return id, "", id != rdf.NoID
	}
}

// closeEnd finalises a walk: keeps frontier entries landing on want (if set)
// or binds the end node to endVar.
func (e *Engine) closeEnd(frontier []node, want rdf.ID, endVar string) []Binding {
	var out []Binding
	for _, n := range frontier {
		switch {
		case want != rdf.NoID:
			if n.id == want {
				out = append(out, n.b)
			}
		case endVar != "":
			if bound, ok := n.b[endVar]; ok {
				if bound == n.id {
					out = append(out, n.b)
				}
				continue
			}
			nb := cloneBinding(n.b)
			nb[endVar] = n.id
			out = append(out, nb)
		default:
			out = append(out, n.b)
		}
	}
	return out
}

// walk advances the frontier through each path element. forward selects
// traversal direction; when false the path must already be reversed.
func (e *Engine) walk(path []PathElt, frontier []node, forward bool) ([]node, error) {
	for _, elt := range path {
		var next []node
		seen := map[string]bool{}
		push := func(n node) {
			k := frontierKey(n)
			if !seen[k] {
				seen[k] = true
				next = append(next, n)
			}
		}
		for _, cur := range frontier {
			if err := e.step(elt, cur, forward, push); err != nil {
				return nil, err
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil, nil
		}
	}
	return frontier, nil
}

func frontierKey(n node) string {
	keys := make([]string, 0, len(n.b))
	for k := range n.b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", n.id)
	for _, k := range keys {
		fmt.Fprintf(&sb, "|%s=%d", k, n.b[k])
	}
	return sb.String()
}

func (e *Engine) step(elt PathElt, cur node, forward bool, push func(node)) error {
	st := e.store
	if elt.Var != "" {
		if bound, ok := cur.b[elt.Var]; ok {
			for _, nxt := range e.neighbors(cur.id, bound, forward) {
				push(node{id: nxt, b: cur.b})
			}
			return nil
		}
		// Unbound variable predicate: enumerate predicates incident to cur.
		if forward {
			for _, tr := range st.Description(cur.id) {
				nb := cloneBinding(cur.b)
				nb[elt.Var] = tr.P
				push(node{id: tr.O, b: nb})
			}
		} else {
			for _, p := range st.Predicates() {
				for _, s := range st.Subjects(p, cur.id) {
					nb := cloneBinding(cur.b)
					nb[elt.Var] = p
					push(node{id: s, b: nb})
				}
			}
		}
		return nil
	}
	p := st.LookupTerm(rdf.IRI(elt.IRI))
	if p == rdf.NoID {
		if elt.Star {
			push(cur) // zero hops still succeed
		}
		return nil
	}
	if !elt.Star {
		for _, nxt := range e.neighbors(cur.id, p, forward) {
			push(node{id: nxt, b: cur.b})
		}
		return nil
	}
	// Zero-or-more: BFS closure including the start node.
	visited := map[rdf.ID]bool{cur.id: true}
	queue := []rdf.ID{cur.id}
	push(cur)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, nxt := range e.neighbors(n, p, forward) {
			if !visited[nxt] {
				visited[nxt] = true
				queue = append(queue, nxt)
				push(node{id: nxt, b: cur.b})
			}
		}
	}
	return nil
}

func (e *Engine) neighbors(n, p rdf.ID, forward bool) []rdf.ID {
	if forward {
		return e.store.Objects(n, p)
	}
	return e.store.Subjects(p, n)
}

// enumerateStarts lists candidate subjects when both pattern ends are
// unbound: the subjects carrying the first path element's predicate.
func (e *Engine) enumerateStarts(path []PathElt) ([]rdf.ID, error) {
	first := path[0]
	if first.Var != "" {
		// Any subject of any predicate.
		set := map[rdf.ID]bool{}
		for _, p := range e.store.Predicates() {
			for _, s := range e.store.SubjectsWithPredicate(p) {
				set[s] = true
			}
		}
		out := make([]rdf.ID, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	if first.Star {
		return nil, fmt.Errorf("sparql: pattern with unbound ends starting with a '*' path is not supported")
	}
	p := e.store.LookupTerm(rdf.IRI(first.IRI))
	if p == rdf.NoID {
		return nil, nil
	}
	return e.store.SubjectsWithPredicate(p), nil
}

func reversePath(path []PathElt) []PathElt {
	out := make([]PathElt, len(path))
	for i, e := range path {
		out[len(path)-1-i] = e
	}
	return out
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}
