package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a reader and writer for the N-Triples line format,
// the interchange format the synthetic KBs are persisted in (cmd/kbgen) and
// the CLI loads (cmd/katara). Only the subset we emit is accepted: IRIs in
// angle brackets and plain or language-tagged string literals.

// ParseNTriples reads N-Triples from r into the store, returning the number
// of triples added. Lines that are empty or start with '#' are skipped.
func (s *Store) ParseNTriples(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	added := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line)
		if err != nil {
			return added, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		if s.AddFact(t[0], t[1], t[2]) {
			added++
		}
	}
	return added, sc.Err()
}

func parseLine(line string) ([3]Term, error) {
	var out [3]Term
	rest := line
	for i := 0; i < 3; i++ {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return out, fmt.Errorf("unexpected end of statement")
		}
		var (
			t   Term
			err error
		)
		t, rest, err = parseTerm(rest)
		if err != nil {
			return out, err
		}
		if i == 1 && t.Kind != Resource {
			return out, fmt.Errorf("predicate must be an IRI")
		}
		out[i] = t
	}
	rest = strings.TrimLeft(rest, " \t")
	if !strings.HasPrefix(rest, ".") {
		return out, fmt.Errorf("statement must end with '.'")
	}
	return out, nil
}

func parseTerm(s string) (Term, string, error) {
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return Term{}, "", fmt.Errorf("unterminated IRI")
		}
		return IRI(s[1:end]), s[end+1:], nil
	case '"':
		// Find the closing quote, honouring backslash escapes.
		i := 1
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return Term{}, "", fmt.Errorf("unterminated literal")
		}
		raw := s[:i+1]
		val, err := strconv.Unquote(raw)
		if err != nil {
			return Term{}, "", fmt.Errorf("bad literal %s: %v", raw, err)
		}
		rest := s[i+1:]
		// Skip optional language tag or datatype.
		if strings.HasPrefix(rest, "@") {
			j := strings.IndexAny(rest, " \t")
			if j < 0 {
				j = len(rest)
			}
			rest = rest[j:]
		} else if strings.HasPrefix(rest, "^^") {
			rest = rest[2:]
			if strings.HasPrefix(rest, "<") {
				j := strings.IndexByte(rest, '>')
				if j < 0 {
					return Term{}, "", fmt.Errorf("unterminated datatype IRI")
				}
				rest = rest[j+1:]
			}
		}
		return Lit(val), rest, nil
	default:
		return Term{}, "", fmt.Errorf("unexpected term start %q", s[0])
	}
}

// WriteNTriples serialises every triple in the store to w.
func (s *Store) WriteNTriples(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	s.ForEachTriple(func(t Triple) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "%s %s %s .\n",
			formatTerm(s.Term(t.S)), formatTerm(s.Term(t.P)), formatTerm(s.Term(t.O)))
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

func formatTerm(t Term) string {
	if t.Kind == Literal {
		return strconv.Quote(t.Value)
	}
	return "<" + t.Value + ">"
}
