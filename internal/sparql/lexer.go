package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVar     // ?name
	tokIRI     // <...> or prefixed name
	tokLiteral // "..."
	tokInt
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokDot
	tokSlash
	tokStar
	tokEq
	tokNeq
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "DISTINCT": true,
	"FILTER": true, "LIMIT": true,
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '{':
			l.emit(tokLBrace, "{")
		case c == '}':
			l.emit(tokRBrace, "}")
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == '.':
			l.emit(tokDot, ".")
		case c == '/':
			l.emit(tokSlash, "/")
		case c == '*':
			l.emit(tokStar, "*")
		case c == '=':
			l.emit(tokEq, "=")
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.toks = append(l.toks, token{tokNeq, "!=", l.pos})
				l.pos += 2
			} else {
				return nil, fmt.Errorf("sparql: unexpected '!' at %d", l.pos)
			}
		case c == '?' || c == '$':
			start := l.pos + 1
			end := start
			for end < len(l.src) && isNameChar(rune(l.src[end])) {
				end++
			}
			if end == start {
				return nil, fmt.Errorf("sparql: empty variable name at %d", l.pos)
			}
			l.toks = append(l.toks, token{tokVar, l.src[start:end], l.pos})
			l.pos = end
		case c == '<':
			end := strings.IndexByte(l.src[l.pos:], '>')
			if end < 0 {
				return nil, fmt.Errorf("sparql: unterminated IRI at %d", l.pos)
			}
			l.toks = append(l.toks, token{tokIRI, l.src[l.pos+1 : l.pos+end], l.pos})
			l.pos += end + 1
		case c == '"':
			i := l.pos + 1
			var sb strings.Builder
			for i < len(l.src) && l.src[i] != '"' {
				if l.src[i] == '\\' && i+1 < len(l.src) {
					i++
					switch l.src[i] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(l.src[i])
					}
				} else {
					sb.WriteByte(l.src[i])
				}
				i++
			}
			if i >= len(l.src) {
				return nil, fmt.Errorf("sparql: unterminated literal at %d", l.pos)
			}
			l.toks = append(l.toks, token{tokLiteral, sb.String(), l.pos})
			l.pos = i + 1
		case c >= '0' && c <= '9':
			end := l.pos
			for end < len(l.src) && l.src[end] >= '0' && l.src[end] <= '9' {
				end++
			}
			l.toks = append(l.toks, token{tokInt, l.src[l.pos:end], l.pos})
			l.pos = end
		default:
			if !isNameStart(rune(c)) {
				return nil, fmt.Errorf("sparql: unexpected character %q at %d", c, l.pos)
			}
			end := l.pos
			for end < len(l.src) && (isNameChar(rune(l.src[end])) || l.src[end] == ':') {
				end++
			}
			word := l.src[l.pos:end]
			upper := strings.ToUpper(word)
			switch {
			case keywords[upper]:
				l.toks = append(l.toks, token{tokKeyword, upper, l.pos})
			case word == "a":
				// rdf:type abbreviation
				l.toks = append(l.toks, token{tokIRI, "rdf:type", l.pos})
			default:
				// prefixed name: treated as an opaque IRI
				l.toks = append(l.toks, token{tokIRI, word, l.pos})
			}
			l.pos = end
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{k, text, l.pos})
	l.pos++
}

func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
