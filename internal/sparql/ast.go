// Package sparql is a from-scratch engine for the SPARQL subset the paper's
// queries use (§4.1 Q_types, Q¹_rels, Q²_rels and the per-tuple coverage
// checks of §6.1), evaluated over the rdf store. The cleaning pipeline does
// not query through it — discovery and annotation evaluate those shapes as
// direct rdf index lookups; only examples/sparql imports it.
//
// Supported grammar:
//
//	Query      := SelectQuery | AskQuery
//	SelectQuery:= 'SELECT' 'DISTINCT'? ( Var+ | '*' ) 'WHERE'? GroupGraph ('LIMIT' INT)?
//	AskQuery   := 'ASK' GroupGraph
//	GroupGraph := '{' Block* '}'
//	Block      := Triple | 'FILTER' Constraint
//	Triple     := VarOrTerm Path VarOrTerm
//	Path       := PathElt ( '/' PathElt )*
//	PathElt    := (IRI | 'a' | Var) '*'?
//	Constraint := '(' Expr (('=' | '!=') Expr) ')'
//
// Terms are `?var`, `<iri>`, prefixed names such as rdfs:label (treated as
// opaque IRIs), and double-quoted literals. `a` abbreviates rdf:type.
package sparql

// QueryKind discriminates SELECT from ASK.
type QueryKind int

const (
	// Select queries return variable bindings.
	Select QueryKind = iota
	// Ask queries return a boolean.
	Ask
)

// Query is a parsed query.
type Query struct {
	Kind     QueryKind
	Distinct bool
	Vars     []string // projected variables; empty means '*' (all bound)
	Where    []Node   // graph pattern nodes, evaluated in order
	Limit    int      // 0 means no limit
}

// Node is one element of a group graph pattern.
type Node interface{ isNode() }

// TripleNode wraps a triple pattern.
type TripleNode struct{ Pattern Pattern }

// FilterNode wraps a FILTER constraint.
type FilterNode struct{ Filter Filter }

func (TripleNode) isNode() {}
func (FilterNode) isNode() {}

// Pattern is one triple pattern with a property path in predicate position.
type Pattern struct {
	Subject NodeSpec
	Path    []PathElt
	Object  NodeSpec
}

// NodeKind discriminates the kinds of node specifications.
type NodeKind int

const (
	// VarNode is a variable such as ?x.
	VarNode NodeKind = iota
	// IRINode is a resource reference.
	IRINode
	// LitNode is a literal.
	LitNode
)

// NodeSpec is a subject or object position: variable, IRI or literal.
type NodeSpec struct {
	Kind  NodeKind
	Value string // variable name (without '?'), IRI, or literal text
}

// PathElt is one step of a property path: a fixed IRI or a variable
// predicate, optionally with zero-or-more repetition ('*').
type PathElt struct {
	IRI  string // set when Var == ""
	Var  string // variable predicate name
	Star bool   // zero-or-more repetition (only valid for IRI elements)
}

// Filter is an (in)equality constraint between two node specs.
type Filter struct {
	Left, Right NodeSpec
	Negated     bool // true for !=
}
