package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokKeyword
	tokVar     // ?x or $x
	tokIRI     // <…> or prefixed name or 'a'
	tokLiteral // "…" with optional @lang or ^^type
	tokNumber
	tokPunct // { } ( ) . ; , = != < > <= >= && || ! + - * / ^ | ?
	tokBlank // _:b
)

type token struct {
	kind tokKind
	text string // keywords upper-cased
	off  int
}

var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "CONSTRUCT": true, "DESCRIBE": true,
	"WHERE": true, "PREFIX": true, "BASE": true, "DISTINCT": true,
	"REDUCED": true, "FROM": true, "NAMED": true, "ORDER": true, "BY": true,
	"GROUP": true, "HAVING": true, "LIMIT": true, "OFFSET": true,
	"OPTIONAL": true, "UNION": true, "FILTER": true, "GRAPH": true,
	"BIND": true, "AS": true, "VALUES": true, "SERVICE": true,
	"SILENT": true, "MINUS": true, "EXISTS": true, "NOT": true, "IN": true,
	"ASC": true, "DESC": true, "UNDEF": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"SAMPLE": true, "GROUP_CONCAT": true, "SEPARATOR": true,
	"AND": true, "OR": true, "TRUE": true, "FALSE": true,
}

// lexer tokenizes SPARQL text. Punctuation relevant to property paths is
// produced as single-character tokens; the parser reads paths from them.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lexSPARQL(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '?' || c == '$':
			// variable — or a bare '?' path operator when not followed by
			// a name character
			l.pos++
			if start := l.pos; l.scanName(isVarChar) > start {
				l.emit(tokVar, l.src[start:l.pos])
			} else {
				l.emit(tokPunct, "?")
			}
		case c == '<':
			// IRI or comparison operator
			if end := strings.IndexByte(l.src[l.pos:], '>'); end >= 0 && !strings.ContainsAny(l.src[l.pos:l.pos+end], " \t\n{}") {
				iri := l.src[l.pos : l.pos+end+1]
				l.pos += end + 1
				l.emit(tokIRI, iri)
			} else if strings.HasPrefix(l.src[l.pos:], "<=") {
				l.pos += 2
				l.emit(tokPunct, "<=")
			} else {
				l.pos++
				l.emit(tokPunct, "<")
			}
		case c == '"' || c == '\'':
			lit, err := l.lexLiteral(c)
			if err != nil {
				return nil, err
			}
			l.emit(tokLiteral, lit)
		case c == '_' && strings.HasPrefix(l.src[l.pos:], "_:"):
			l.pos += 2
			start := l.pos
			l.scanName(isPNChar)
			l.emit(tokBlank, l.src[start:l.pos])
		case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			start := l.pos
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				l.pos++
			}
			// a trailing dot is the triple terminator, not part of the number
			if l.src[l.pos-1] == '.' {
				l.pos--
			}
			l.emit(tokNumber, l.src[start:l.pos])
		case strings.HasPrefix(l.src[l.pos:], "&&"), strings.HasPrefix(l.src[l.pos:], "||"),
			strings.HasPrefix(l.src[l.pos:], "!="), strings.HasPrefix(l.src[l.pos:], ">="),
			strings.HasPrefix(l.src[l.pos:], "^^"):
			l.emit(tokPunct, l.src[l.pos:l.pos+2])
			l.pos += 2
		case strings.ContainsRune("{}().;,=>!+-*/^|[]", rune(c)):
			l.emit(tokPunct, string(c))
			l.pos++
		case c == '_' || unicode.IsLetter(l.runeAt()):
			start := l.pos
			l.scanName(isPNChar)
			word := l.src[start:l.pos]
			// prefixed name? (word containing or followed by ':')
			if l.pos < len(l.src) && l.src[l.pos] == ':' {
				l.pos++
				l.scanName(isPNChar)
				l.emit(tokIRI, l.src[start:l.pos])
				continue
			}
			if strings.Contains(word, ":") {
				l.emit(tokIRI, word)
				continue
			}
			up := strings.ToUpper(word)
			if keywords[up] {
				l.emit(tokKeyword, up)
			} else if word == "a" {
				l.emit(tokIRI, "a") // rdf:type shorthand
			} else {
				// bare local name used as function (e.g. lang, str, regex)
				l.emit(tokKeyword, up)
			}
		case c == ':':
			// prefixed name with empty prefix (:name)
			start := l.pos
			l.pos++
			l.scanName(isPNChar)
			l.emit(tokIRI, l.src[start:l.pos])
		case c == '@':
			// language tag: attach to nothing; skip
			l.pos++
			l.scanName(isLangChar)
		default:
			return nil, fmt.Errorf("sparql: unexpected character %q at offset %d", c, l.pos)
		}
	}
}

// runeAt decodes the rune at l.pos; invalid UTF-8 gives utf8.RuneError,
// which no name accepts.
func (l *lexer) runeAt() rune {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// scanName advances past the runes ok accepts, backs off trailing dots,
// which belong to the surrounding syntax, and returns the new offset.
func (l *lexer) scanName(ok func(rune) bool) int {
	start := l.pos
	for l.pos < len(l.src) {
		r := l.runeAt()
		if !ok(r) {
			break
		}
		l.pos += utf8.RuneLen(r)
	}
	for l.pos > start && l.src[l.pos-1] == '.' {
		l.pos--
	}
	return l.pos
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{k, text, l.pos})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) lexLiteral(quote byte) (string, error) {
	// triple-quoted?
	q3 := strings.Repeat(string(quote), 3)
	if strings.HasPrefix(l.src[l.pos:], q3) {
		end := strings.Index(l.src[l.pos+3:], q3)
		if end < 0 {
			return "", fmt.Errorf("sparql: unterminated long literal at offset %d", l.pos)
		}
		lit := l.src[l.pos+3 : l.pos+3+end]
		l.pos += 6 + end
		return lit, nil
	}
	i := l.pos + 1
	var b strings.Builder
	for i < len(l.src) {
		c := l.src[i]
		if c == '\\' && i+1 < len(l.src) {
			b.WriteByte(l.src[i+1])
			i += 2
			continue
		}
		if c == quote {
			l.pos = i + 1
			// optional datatype ^^iri is handled by the ^^ token later;
			// language tags by the '@' case
			return b.String(), nil
		}
		if c == '\n' {
			break
		}
		b.WriteByte(c)
		i++
	}
	return "", fmt.Errorf("sparql: unterminated literal at offset %d", l.pos)
}

func isPNChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

func isLangChar(r rune) bool {
	return unicode.IsLetter(r) || r == '-'
}

// isVarChar matches SPARQL VARNAME characters (no '-' or '.').
func isVarChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
