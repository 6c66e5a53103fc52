package sparql

import (
	"fmt"
	"strconv"
)

// Parse compiles a query string into its AST.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, got %q", what, p.peek().text)
	}
	return p.next(), nil
}

func (p *parser) keyword(word string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == word {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected SELECT or ASK, got %q", t.text)
	}
	q := &Query{}
	switch t.text {
	case "SELECT":
		p.next()
		if p.keyword("DISTINCT") {
			q.Distinct = true
		}
		if err := p.parseProjection(q); err != nil {
			return nil, err
		}
		p.keyword("WHERE")
	case "ASK":
		p.next()
		q.Kind = Ask
	default:
		return nil, p.errf("expected SELECT or ASK, got %q", t.text)
	}
	where, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if p.keyword("LIMIT") {
		n, err := p.expect(tokInt, "LIMIT count")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim < 0 {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		q.Limit = lim
	}
	return q, nil
}

// parseProjection handles `*` or a variable list.
func (p *parser) parseProjection(q *Query) error {
	if p.peek().kind == tokStar {
		p.next()
		return nil
	}
	for p.peek().kind == tokVar {
		q.Vars = append(q.Vars, p.next().text)
	}
	if len(q.Vars) == 0 {
		return p.errf("SELECT needs at least one variable or '*'")
	}
	return nil
}

// parseGroup parses a brace-delimited group graph pattern.
func (p *parser) parseGroup() ([]Node, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var nodes []Node
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.next()
			return nodes, nil
		case t.kind == tokDot:
			p.next() // separator / trailing dot
		case t.kind == tokKeyword && t.text == "FILTER":
			p.next()
			f, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, FilterNode{Filter: f})
		case t.kind == tokEOF:
			return nil, p.errf("unterminated group")
		default:
			pat, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, TripleNode{Pattern: pat})
		}
	}
}

func (p *parser) parseNode() (NodeSpec, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return NodeSpec{Kind: VarNode, Value: t.text}, nil
	case tokIRI:
		return NodeSpec{Kind: IRINode, Value: t.text}, nil
	case tokLiteral:
		return NodeSpec{Kind: LitNode, Value: t.text}, nil
	case tokInt:
		return NodeSpec{Kind: LitNode, Value: t.text}, nil
	default:
		return NodeSpec{}, fmt.Errorf("sparql: at offset %d: expected term, got %q", t.pos, t.text)
	}
}

func (p *parser) parsePattern() (Pattern, error) {
	subj, err := p.parseNode()
	if err != nil {
		return Pattern{}, err
	}
	var path []PathElt
	for {
		elt, err := p.parsePathElt()
		if err != nil {
			return Pattern{}, err
		}
		path = append(path, elt)
		if p.peek().kind == tokSlash {
			p.next()
			continue
		}
		break
	}
	obj, err := p.parseNode()
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{Subject: subj, Path: path, Object: obj}, nil
}

func (p *parser) parsePathElt() (PathElt, error) {
	t := p.next()
	var elt PathElt
	switch t.kind {
	case tokIRI:
		elt.IRI = t.text
	case tokVar:
		elt.Var = t.text
	default:
		return elt, fmt.Errorf("sparql: at offset %d: expected path element, got %q", t.pos, t.text)
	}
	if p.peek().kind == tokStar {
		p.next()
		if elt.Var != "" {
			return elt, fmt.Errorf("sparql: '*' on a variable predicate is not supported")
		}
		elt.Star = true
	}
	return elt, nil
}

func (p *parser) parseFilter() (Filter, error) {
	if _, err := p.expect(tokLParen, "'(' after FILTER"); err != nil {
		return Filter{}, err
	}
	left, err := p.parseNode()
	if err != nil {
		return Filter{}, err
	}
	op := p.next()
	if op.kind != tokEq && op.kind != tokNeq {
		return Filter{}, fmt.Errorf("sparql: at offset %d: expected '=' or '!=', got %q", op.pos, op.text)
	}
	right, err := p.parseNode()
	if err != nil {
		return Filter{}, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Filter{}, err
	}
	return Filter{Left: left, Right: right, Negated: op.kind == tokNeq}, nil
}
