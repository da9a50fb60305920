package sparql

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/regex"
	"repro/internal/textio"
)

// Parse parses a SPARQL query string in the Section 9 fragment. Queries
// outside the fragment (or syntactically invalid ones — the logs of
// Table 2 contain millions of those) return an error; the analysis
// pipeline counts them as non-Valid. Groups, expressions and path atoms
// nested deeper than textio.MaxDepth are a parse error, and so are path
// and expression trees higher than that: a run of path modifiers or a
// chain of operators adds one level per operator.
func Parse(src string) (*Query, error) {
	q, err := parseAll(src, (*parser).parseQuery)
	if err == nil {
		q.size = len(src)
	}
	return q, err
}

// MustParse panics on error; for tests.
func MustParse(src string) *Query {
	return must(Parse(src))
}

// ParsePath parses a standalone property path such as wdt:P31/wdt:P279*
// with the grammar of a predicate position, into the 2RPQ expression that
// package propertypath reads. IRIs are SPARQL IRI tokens: prefixed names,
// <…> IRIs, or the keyword a (rdf:type); a bare word other than a is a
// keyword, not an IRI.
func ParsePath(src string) (*regex.Expr, error) {
	return parseAll(src, (*parser).parsePropertyPath)
}

// MustParsePath panics on error; for tests and examples.
func MustParsePath(src string) *regex.Expr {
	return must(ParsePath(src))
}

// parseAll parses src with parse, which must read every token. The
// scanner runs one token ahead of the parser, so a parse error scans the
// rest of src: a lexical error anywhere in src wins over a parse error,
// as it did when the whole text was lexed before parsing.
func parseAll[T any](src string, parse func(*parser) (T, error)) (T, error) {
	var zero T
	p := &parser{src: src}
	p.stack = p.stackBuf[:0]
	// the first pattern chunk is sized from the text: log queries spend
	// about 40 bytes on each pattern
	p.patNodes.next = min(max(len(src)/40, 2), 64)
	// a plain predicate's path node goes back to the slab, so one node
	// serves most queries
	p.pathNodes.next = 1
	p.scan()
	x, err := parse(p)
	if err == nil && p.tok.kind != tokEOF {
		err = p.errf("trailing input %q", p.tok.show())
	}
	for err != nil && p.lexErr == nil && p.tok.kind != tokEOF {
		p.scan()
	}
	if p.lexErr != nil {
		return zero, p.lexErr
	}
	if err != nil {
		return zero, err
	}
	return x, nil
}

func must[T any](x T, err error) T {
	if err != nil {
		panic(err)
	}
	return x
}

type tokKind uint8

const (
	tokEOF     tokKind = iota
	tokWord            // a bare word as written: a keyword or function name
	tokVar             // ?x or $x
	tokIRI             // <…>, a prefixed name, or a (rdf:type)
	tokLiteral         // "…"; an @lang after it is skipped, ^^ is punctuation
	tokNumber
	tokPunct // { } ( ) . ; , = != < > <= >= && || ! + - * / ^ ^^ | ? [ ]
	tokBlank // _:b
)

// token is one lexical token. Its text aliases the source, except for a
// literal with escapes; variables and blank nodes omit their sigils.
// off is the offset error messages print: the start of a punctuation
// token, the end of any other.
type token struct {
	kind tokKind
	text string
	off  int
}

// show renders t for error messages, words upper-cased as keywords are.
func (t token) show() string {
	if t.kind == tokWord {
		return upperWord(t.text)
	}
	return t.text
}

// parser reads a query in one pass: it scans the next token from a byte
// offset when the current one is consumed, and takes the tree's nodes
// and child lists from slabs.
type parser struct {
	src    string
	pos    int   // where the next token's scan starts
	tok    token // the current token
	n      int   // tokens consumed; names the [] blank nodes
	lexErr error // the first lexical error; the scan ends there
	depth  int   // nesting of groups, expressions and path atoms
	h      int   // height of the path or expression tree last parsed

	patNodes  slab[Pattern]
	patLists  slab[*Pattern]
	exprNodes slab[Expr]
	exprLists slab[*Expr]
	pathNodes slab[regex.Expr]
	pathLists slab[*regex.Expr]

	// stack holds the children of the open groups, innermost last; a
	// group moves its own to patLists when it closes.
	stack    []*Pattern
	stackBuf [16]*Pattern
}

// slab hands out values from chunks, so the nodes of one query cost a
// few allocations rather than one each. The first chunk holds next
// elements, or 4 when next is 0; each later one doubles, up to 256,
// unless one request needs more.
type slab[T any] struct {
	chunk []T
	used  int
	next  int
}

// put copies xs into the slab and returns the copy, or nil for no xs.
func (s *slab[T]) put(xs ...T) []T {
	if len(xs) == 0 {
		return nil
	}
	if len(s.chunk)-s.used < len(xs) {
		size := max(len(xs), cmp.Or(s.next, 4))
		s.chunk, s.used = make([]T, size), 0
		s.next = min(2*size, 256)
	}
	out := s.chunk[s.used : s.used+len(xs) : s.used+len(xs)]
	s.used += len(xs)
	copy(out, xs)
	return out
}

// drop takes back the value put last, which nothing may reference.
func (s *slab[T]) drop() {
	s.used--
	clear(s.chunk[s.used : s.used+1])
}

func (p *parser) pattern(x Pattern) *Pattern         { return &p.patNodes.put(x)[0] }
func (p *parser) patterns(xs ...*Pattern) []*Pattern { return p.patLists.put(xs...) }
func (p *parser) expr(x Expr) *Expr                  { return &p.exprNodes.put(x)[0] }
func (p *parser) exprs(xs ...*Expr) []*Expr          { return p.exprLists.put(xs...) }

func (p *parser) path(x regex.Expr) *regex.Expr         { return &p.pathNodes.put(x)[0] }
func (p *parser) paths(xs ...*regex.Expr) []*regex.Expr { return p.pathLists.put(xs...) }

// push adds x to the children of the innermost open group.
func (p *parser) push(x Pattern) { p.stack = append(p.stack, p.pattern(x)) }

// ---------------------------------- scanner ----------------------------------

// scan reads the token at p.pos into p.tok, past blanks, comments and
// language tags. A lexical error is kept in lexErr and ends the scan:
// every later token is EOF.
func (p *parser) scan() {
	s := p.src
	for {
		p.skipSpaceAndComments()
		start := p.pos
		if start >= len(s) {
			p.tok = token{tokEOF, "", len(s)}
			return
		}
		switch c := s[start]; {
		case c == '?' || c == '$':
			// a variable, or a bare ? path operator when no name follows
			p.pos++
			if p.scanName(isVarChar) > start+1 {
				p.tok = token{tokVar, s[start+1 : p.pos], p.pos}
			} else {
				p.tok = token{tokPunct, "?", p.pos}
			}
		case c == '<':
			// an IRI when a '>' comes before any blank or brace, else a
			// comparison operator
			if j := strings.IndexAny(s[start:], "> \t\n{}"); j >= 0 && s[start+j] == '>' {
				p.pos += j + 1
				p.tok = token{tokIRI, s[start:p.pos], p.pos}
			} else if strings.HasPrefix(s[start:], "<=") {
				p.pos += 2
				p.tok = token{tokPunct, "<=", p.pos}
			} else {
				p.pos++
				p.tok = token{tokPunct, "<", p.pos}
			}
		case c == '"' || c == '\'':
			p.scanLiteral(c)
		case c == '_' && strings.HasPrefix(s[start:], "_:"):
			p.pos += 2
			p.scanName(isPNChar)
			p.tok = token{tokBlank, s[start+2 : p.pos], p.pos}
		case isDigit(c) || c == '.' && start+1 < len(s) && isDigit(s[start+1]):
			for p.pos < len(s) && (isDigit(s[p.pos]) || s[p.pos] == '.' || s[p.pos] == 'e' || s[p.pos] == 'E') {
				p.pos++
			}
			// a trailing dot is the triple terminator, not part of the number
			if s[p.pos-1] == '.' {
				p.pos--
			}
			p.tok = token{tokNumber, s[start:p.pos], p.pos}
		case strings.HasPrefix(s[start:], "&&"), strings.HasPrefix(s[start:], "||"),
			strings.HasPrefix(s[start:], "!="), strings.HasPrefix(s[start:], ">="),
			strings.HasPrefix(s[start:], "^^"):
			p.pos += 2
			p.tok = token{tokPunct, s[start:p.pos], start}
		case strings.IndexByte("{}().;,=>!+-*/^|[]", c) >= 0:
			p.pos++
			p.tok = token{tokPunct, s[start:p.pos], start}
		case c == '_' || unicode.IsLetter(p.runeAt()):
			p.scanName(isPNChar)
			switch {
			case p.pos < len(s) && s[p.pos] == ':':
				// a prefixed name
				p.pos++
				p.scanName(isPNChar)
				p.tok = token{tokIRI, s[start:p.pos], p.pos}
			case s[start:p.pos] == "a":
				p.tok = token{tokIRI, "a", p.pos} // rdf:type shorthand
			default:
				p.tok = token{tokWord, s[start:p.pos], p.pos}
			}
		case c == ':':
			// prefixed name with empty prefix (:name)
			p.pos++
			p.scanName(isPNChar)
			p.tok = token{tokIRI, s[start:p.pos], p.pos}
		case c == '@':
			// language tag: attach to nothing; skip
			p.pos++
			p.scanName(isLangChar)
			continue
		default:
			p.fail("unexpected character %q at offset %d", c, start)
		}
		return
	}
}

// fail keeps a lexical error and ends the scan.
func (p *parser) fail(format string, args ...any) {
	p.lexErr = fmt.Errorf("sparql: "+format, args...)
	p.pos = len(p.src)
	p.tok = token{tokEOF, "", len(p.src)}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// runeAt decodes the rune at p.pos; invalid UTF-8 gives utf8.RuneError,
// which no name accepts.
func (p *parser) runeAt() rune {
	if c := p.src[p.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(p.src[p.pos:])
	return r
}

// scanName advances past the runes ok accepts, backs off trailing dots,
// which belong to the surrounding syntax, and returns the new offset.
func (p *parser) scanName(ok func(rune) bool) int {
	start := p.pos
	for p.pos < len(p.src) {
		r, size := rune(p.src[p.pos]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(p.src[p.pos:])
		}
		if !ok(r) {
			break
		}
		p.pos += size
	}
	for p.pos > start && p.src[p.pos-1] == '.' {
		p.pos--
	}
	return p.pos
}

func (p *parser) skipSpaceAndComments() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

// scanLiteral scans the literal that opens at p.pos with quote. Its text
// aliases the source unless it has escapes; a backslash keeps the byte
// after it.
func (p *parser) scanLiteral(quote byte) {
	s, start := p.src, p.pos
	if start+2 < len(s) && s[start+1] == quote && s[start+2] == quote {
		end := strings.Index(s[start+3:], s[start:start+3])
		if end < 0 {
			p.fail("unterminated long literal at offset %d", start)
			return
		}
		p.pos = start + 6 + end
		p.tok = token{tokLiteral, s[start+3 : start+3+end], p.pos}
		return
	}
	escaped := false
	for i := start + 1; i < len(s) && s[i] != '\n'; i++ {
		if s[i] == '\\' && i+1 < len(s) {
			escaped = true
			i++
		} else if s[i] == quote {
			p.pos = i + 1
			p.tok = token{tokLiteral, s[start+1 : i], p.pos}
			if escaped {
				p.tok.text = unescape(p.tok.text)
			}
			return
		}
	}
	p.fail("unterminated literal at offset %d", start)
}

func unescape(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
		}
		b = append(b, s[i])
	}
	return string(b)
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

// upperWord upper-cases a word, as function names and error messages
// show it. A letter becomes ASCII only if it was ASCII: SPARQL keywords
// are ASCII, so ſum (long s) stays a function of its own, not SUM.
func upperWord(w string) string {
	return strings.Map(func(r rune) rune {
		if u := unicode.ToUpper(r); r < utf8.RuneSelf || u >= utf8.RuneSelf {
			return u
		}
		return r
	}, w)
}

// ---------------------------------- parser -----------------------------------

// next consumes the current token and returns it.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.n++
		p.scan()
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: %s (near offset %d)", fmt.Sprintf(format, args...), p.tok.off)
}

// enter counts one level of nesting and fails past textio.MaxDepth,
// before the recursion can exhaust the stack; leave undoes it.
func (p *parser) enter() error {
	if p.depth++; p.depth > textio.MaxDepth {
		return p.errf("nesting deeper than %d levels", textio.MaxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// above sets p.h to the height of a node whose highest child has height
// sub (-1 for a node without children), and fails past textio.MaxDepth:
// the passes over a tree recurse once per level.
func (p *parser) above(sub int) error {
	if p.h = sub + 1; p.h > textio.MaxDepth {
		return p.errf("nesting deeper than %d levels", textio.MaxDepth)
	}
	return nil
}

// isWord reports whether the current token is the keyword kw, given in
// upper case. Keywords match ASCII-case-insensitively and only so: they
// are ASCII, so no other letter folds into one (ſ is not s, ı is not i).
func (p *parser) isWord(kw string) bool {
	w := p.tok.text
	if p.tok.kind != tokWord || len(w) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if c := w[i]; c != kw[i] && !('a' <= c && c <= 'z' && c-('a'-'A') == kw[i]) {
			return false
		}
	}
	return true
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isWord(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if p.isPunct(s) {
		p.next()
		return nil
	}
	return p.errf("expected %q, found %q", s, p.tok.show())
}

func (p *parser) isPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1, Offset: -1}
	// prologue
	for {
		if p.acceptKeyword("PREFIX") {
			name := p.next()
			if name.kind != tokIRI || !strings.Contains(name.text, ":") {
				return nil, p.errf("malformed PREFIX declaration")
			}
			iri := p.next()
			if iri.kind != tokIRI {
				return nil, p.errf("PREFIX needs an IRI")
			}
			if q.Prefixes == nil {
				q.Prefixes = map[string]string{}
			}
			q.Prefixes[name.text[:strings.IndexByte(name.text, ':')]] = iri.text
			continue
		}
		if p.acceptKeyword("BASE") {
			if p.next().kind != tokIRI {
				return nil, p.errf("BASE needs an IRI")
			}
			continue
		}
		break
	}
	switch {
	case p.acceptKeyword("SELECT"):
		q.Type = Select
		if err := p.parseSelectClause(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("ASK"):
		q.Type = Ask
	case p.acceptKeyword("CONSTRUCT"):
		q.Type = Construct
		if p.isPunct("{") {
			tmpl, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			q.Template = tmpl.Subs
		}
	case p.acceptKeyword("DESCRIBE"):
		q.Type = Describe
		for {
			t := p.tok
			if t.kind == tokVar {
				p.next()
				q.DescribeTerms = append(q.DescribeTerms, Term{TermVar, t.text})
				continue
			}
			if t.kind == tokIRI {
				p.next()
				q.DescribeTerms = append(q.DescribeTerms, Term{TermIRI, t.text})
				continue
			}
			if p.isPunct("*") {
				p.next()
				q.Star = true
				continue
			}
			break
		}
		if len(q.DescribeTerms) == 0 && !q.Star {
			return nil, p.errf("DESCRIBE needs targets")
		}
	default:
		return nil, p.errf("expected query form, found %q", p.tok.show())
	}
	// datasets
	for p.acceptKeyword("FROM") {
		p.acceptKeyword("NAMED")
		if p.next().kind != tokIRI {
			return nil, p.errf("FROM needs an IRI")
		}
	}
	// WHERE
	hasWhere := p.acceptKeyword("WHERE")
	if p.isPunct("{") {
		w, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		q.Where = w
	} else if hasWhere {
		return nil, p.errf("WHERE needs a group")
	} else if q.Type != Describe {
		return nil, p.errf("query needs a WHERE clause")
	}
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseSelectClause(q *Query) error {
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	} else if p.acceptKeyword("REDUCED") {
		q.Reduced = true
	}
	if p.isPunct("*") {
		p.next()
		q.Star = true
		return nil
	}
	q.Items = make([]SelectItem, 0, 4)
	for {
		if t := p.tok; t.kind == tokVar {
			p.next()
			q.Items = append(q.Items, SelectItem{Var: t.text})
			continue
		}
		if p.isPunct("(") {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if !p.acceptKeyword("AS") {
				return p.errf("expected AS in select expression")
			}
			v := p.next()
			if v.kind != tokVar {
				return p.errf("AS needs a variable")
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			q.Items = append(q.Items, SelectItem{Var: v.text, Expr: e})
			continue
		}
		break
	}
	if len(q.Items) == 0 {
		return p.errf("SELECT needs projections or *")
	}
	return nil
}

func (p *parser) parseSolutionModifiers(q *Query) error {
	for {
		switch {
		case p.acceptKeyword("GROUP"):
			if !p.acceptKeyword("BY") {
				return p.errf("GROUP must be followed by BY")
			}
			n := 0
			for {
				if t := p.tok; t.kind == tokVar {
					p.next()
					q.GroupBy = append(q.GroupBy, t.text)
					n++
					continue
				}
				if p.isPunct("(") {
					p.next()
					if _, err := p.parseExpr(); err != nil {
						return err
					}
					if p.acceptKeyword("AS") {
						if p.next().kind != tokVar {
							return p.errf("AS needs a variable")
						}
					}
					if err := p.expectPunct(")"); err != nil {
						return err
					}
					q.GroupBy = append(q.GroupBy, "(expr)")
					n++
					continue
				}
				break
			}
			if n == 0 {
				return p.errf("GROUP BY needs conditions")
			}
		case p.acceptKeyword("HAVING"):
			e, err := p.parseBracketedOrPlainExpr()
			if err != nil {
				return err
			}
			q.Having = append(q.Having, e)
		case p.acceptKeyword("ORDER"):
			if !p.acceptKeyword("BY") {
				return p.errf("ORDER must be followed by BY")
			}
			n := 0
			for {
				if p.acceptKeyword("ASC") || p.acceptKeyword("DESC") {
					if err := p.expectPunct("("); err != nil {
						return err
					}
					if _, err := p.parseExpr(); err != nil {
						return err
					}
					if err := p.expectPunct(")"); err != nil {
						return err
					}
					n++
					continue
				}
				if p.tok.kind == tokVar {
					p.next()
					n++
					continue
				}
				if p.isAggregate() {
					if _, err := p.parseExpr(); err != nil {
						return err
					}
					n++
					continue
				}
				break
			}
			if n == 0 {
				return p.errf("ORDER BY needs conditions")
			}
			q.OrderBy += n
		case p.acceptKeyword("LIMIT"):
			t := p.next()
			if t.kind != tokNumber {
				return p.errf("LIMIT needs a number")
			}
			q.Limit, _ = strconv.Atoi(t.text)
		case p.acceptKeyword("OFFSET"):
			t := p.next()
			if t.kind != tokNumber {
				return p.errf("OFFSET needs a number")
			}
			q.Offset, _ = strconv.Atoi(t.text)
		case p.acceptKeyword("VALUES"):
			// trailing VALUES block
			vals, err := p.parseValues()
			if err != nil {
				return err
			}
			if q.Where == nil {
				q.Where = vals
			} else {
				q.Where = p.pattern(Pattern{Kind: PGroup, Subs: p.patterns(q.Where, vals)})
			}
		default:
			return nil
		}
	}
}

func (p *parser) parseBracketedOrPlainExpr() (*Expr, error) {
	if p.isPunct("(") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseExpr()
}

// parseGroup parses { … } into a PGroup pattern.
func (p *parser) parseGroup() (*Pattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	base := len(p.stack)
	for {
		switch {
		case p.isPunct("}"):
			p.next()
			group := p.pattern(Pattern{Kind: PGroup, Subs: p.patterns(p.stack[base:]...)})
			p.stack = p.stack[:base]
			return group, nil
		case p.tok.kind == tokEOF:
			return nil, p.errf("unterminated group")
		case p.acceptKeyword("OPTIONAL"):
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: POptional, Subs: p.patterns(sub)})
		case p.acceptKeyword("MINUS"):
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: PMinus, Subs: p.patterns(sub)})
		case p.acceptKeyword("FILTER"):
			e, err := p.parseFilterConstraint()
			if err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: PFilter, Expr: e})
		case p.acceptKeyword("BIND"):
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptKeyword("AS") {
				return nil, p.errf("BIND needs AS")
			}
			v := p.next()
			if v.kind != tokVar {
				return nil, p.errf("BIND needs a variable")
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: PBind, Expr: e, BindVar: v.text})
		case p.acceptKeyword("GRAPH"):
			name, err := p.parseVarOrIRI()
			if err != nil {
				return nil, err
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: PGraph, Name: name, Subs: p.patterns(sub)})
		case p.acceptKeyword("SERVICE"):
			silent := p.acceptKeyword("SILENT")
			name, err := p.parseVarOrIRI()
			if err != nil {
				return nil, err
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: PService, Name: name, Subs: p.patterns(sub), Silent: silent})
		case p.acceptKeyword("VALUES"):
			vals, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			p.stack = append(p.stack, vals)
		case p.isWord("SELECT"):
			// subquery
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			p.push(Pattern{Kind: PSubquery, Query: sub})
		case p.isPunct("{"):
			// nested group, possibly a UNION chain
			node, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			for p.acceptKeyword("UNION") {
				right, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				node = p.pattern(Pattern{Kind: PUnion, Subs: p.patterns(node, right)})
			}
			p.stack = append(p.stack, node)
		case p.isPunct("."):
			p.next() // stray dot separators are fine
		default:
			// triples block
			if err := p.parseTriplesBlock(); err != nil {
				return nil, err
			}
		}
	}
}

func (p *parser) parseValues() (*Pattern, error) {
	out := Pattern{Kind: PValues}
	single := false
	switch {
	case p.tok.kind == tokVar:
		out.ValuesVars = []string{p.next().text}
		single = true
	case p.isPunct("("):
		p.next()
		for p.tok.kind == tokVar {
			out.ValuesVars = append(out.ValuesVars, p.next().text)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("VALUES needs variables")
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unterminated VALUES block")
		}
		if single {
			entry, err := p.valuesEntry()
			if err != nil {
				return nil, err
			}
			out.ValuesRows++
			out.ValuesData = append(out.ValuesData, []string{entry})
			continue
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []string
		for !p.isPunct(")") {
			entry, err := p.valuesEntry()
			if err != nil {
				return nil, err
			}
			row = append(row, entry)
		}
		p.next()
		out.ValuesRows++
		out.ValuesData = append(out.ValuesData, row)
	}
	p.next()
	return p.pattern(out), nil
}

// valuesEntry consumes one VALUES row entry; UNDEF becomes the empty
// string.
func (p *parser) valuesEntry() (string, error) {
	undef := p.isWord("UNDEF")
	t := p.next()
	switch {
	case undef:
		return "", nil
	case t.kind == tokIRI || t.kind == tokLiteral || t.kind == tokNumber:
		return t.text, nil
	}
	return "", p.errf("bad VALUES row entry %q", t.show())
}

func (p *parser) parseVarOrIRI() (Term, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return Term{TermVar, t.text}, nil
	case tokIRI:
		return Term{TermIRI, t.text}, nil
	}
	return Term{}, p.errf("expected variable or IRI, found %q", t.show())
}

// parseTriplesBlock parses a run of triples with ';' and ',' abbreviations
// until a non-triple token, and adds them to the innermost group.
func (p *parser) parseTriplesBlock() error {
	for {
		s, err := p.parseTerm(true)
		if err != nil {
			return err
		}
		for {
			// predicate: variable or property path
			var pred Term
			var path *regex.Expr
			if t := p.tok; t.kind == tokVar {
				p.next()
				pred = Term{TermVar, t.text}
			} else {
				pp, err := p.parsePropertyPath()
				if err != nil {
					return err
				}
				if pp.Kind == regex.Symbol && pp.Sym[0] != '^' && pp.Sym[0] != '!' {
					// a plain predicate: its path node, the only one
					// put, goes back to the slab
					pred = Term{TermIRI, pp.Sym}
					p.pathNodes.drop()
				} else {
					path = pp
				}
			}
			for {
				o, err := p.parseTerm(false)
				if err != nil {
					return err
				}
				if path != nil {
					p.push(Pattern{Kind: PPath, S: s, P: pred, O: o, Path: path})
				} else {
					p.push(Pattern{Kind: PTriple, S: s, P: pred, O: o})
				}
				if p.isPunct(",") {
					p.next()
					continue
				}
				break
			}
			if p.isPunct(";") {
				p.next()
				// allow trailing ';' before '.' or '}'
				if p.isPunct(".") || p.isPunct("}") {
					break
				}
				continue
			}
			break
		}
		if p.isPunct(".") {
			p.next()
			// another triples run may follow; stop on non-term tokens
			switch p.tok.kind {
			case tokVar, tokIRI, tokBlank, tokLiteral, tokNumber:
				continue
			}
		}
		return nil
	}
}

func (p *parser) parseTerm(subjectPos bool) (Term, error) {
	boolean := p.isWord("TRUE") || p.isWord("FALSE")
	t := p.next()
	switch t.kind {
	case tokVar:
		return Term{TermVar, t.text}, nil
	case tokIRI:
		return Term{TermIRI, t.text}, nil
	case tokBlank:
		return Term{TermBlank, t.text}, nil
	case tokLiteral:
		// consume optional ^^type
		if p.isPunct("^^") {
			p.next()
			if p.next().kind != tokIRI {
				return Term{}, p.errf("datatype needs an IRI")
			}
		}
		if subjectPos {
			return Term{}, p.errf("literal in subject position")
		}
		return Term{TermLiteral, t.text}, nil
	case tokNumber:
		if subjectPos {
			return Term{}, p.errf("number in subject position")
		}
		return Term{TermLiteral, t.text}, nil
	case tokWord:
		if boolean {
			return Term{TermLiteral, strings.ToLower(t.text)}, nil
		}
	case tokPunct:
		// anonymous blank node [] (property lists unsupported)
		if t.text == "[" && p.isPunct("]") {
			p.next()
			return Term{TermBlank, "anon" + strconv.Itoa(p.n)}, nil
		}
	}
	return Term{}, p.errf("expected RDF term, found %q", t.show())
}

// parsePropertyPath parses a property path at predicate position: its
// |-alternatives of /-sequences of unary items. Only tokens that continue
// the path are read, so the object term after it stays in place.
//
// The path comes out as its 2RPQ expression, with ^ pushed down to the
// atoms: each parse function takes inv, which is set under an odd number
// of ^, and then reads the inverse of what is written. An inverse
// sequence is reversed, and an inverse atom's direction flipped.
func (p *parser) parsePropertyPath() (*regex.Expr, error) {
	return p.parsePathList("|", false)
}

// parsePathList parses one or more items separated by sep: /-sequences
// when sep is "|", unary items when sep is "/". Two or more items make a
// Union or Concat node, flat as regex.NewUnion and NewConcat make them.
func (p *parser) parsePathList(sep string, inv bool) (*regex.Expr, error) {
	first, err := p.parsePathItem(sep, inv)
	if err != nil || !p.isPunct(sep) {
		return first, err
	}
	kind := regex.Union
	if sep == "/" {
		kind = regex.Concat
	}
	var buf [8]*regex.Expr
	items := append(buf[:0], first)
	// the height of an item just parsed, as a child of the list: an item
	// of the same kind is spliced in, its children one level up
	childHeight := func(x *regex.Expr) int {
		if x.Kind == kind {
			return p.h - 1
		}
		return p.h
	}
	sub := childHeight(first)
	for p.isPunct(sep) {
		p.next()
		next, err := p.parsePathItem(sep, inv)
		if err != nil {
			return nil, err
		}
		items = append(items, next)
		sub = max(sub, childHeight(next))
	}
	if err := p.above(sub); err != nil {
		return nil, err
	}
	if inv && kind == regex.Concat {
		slices.Reverse(items)
	}
	// a parenthesized list of the same kind is spliced in; its items are
	// already in order
	var flat [8]*regex.Expr
	subs := flat[:0]
	for _, x := range items {
		if x.Kind == kind {
			subs = append(subs, x.Subs...)
		} else {
			subs = append(subs, x)
		}
	}
	return p.path(regex.Expr{Kind: kind, Subs: p.paths(subs...)}), nil
}

func (p *parser) parsePathItem(sep string, inv bool) (*regex.Expr, error) {
	if sep == "|" {
		return p.parsePathList("/", inv)
	}
	return p.parsePathUnary(inv)
}

// parsePathUnary parses an atom followed by any run of *, + and ?.
func (p *parser) parsePathUnary(inv bool) (*regex.Expr, error) {
	x, err := p.parsePathAtom(inv)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPunct {
		var kind regex.Kind
		switch p.tok.text {
		case "*":
			kind = regex.Star
		case "+":
			kind = regex.Plus
		case "?":
			kind = regex.Opt
		default:
			return x, nil
		}
		if err := p.above(p.h); err != nil {
			return nil, err
		}
		p.next()
		x = p.path(regex.Expr{Kind: kind, Subs: p.paths(x)})
	}
	return x, nil
}

// parsePathAtom parses an IRI, ^atom, a negated property set, or a
// parenthesized path.
func (p *parser) parsePathAtom(inv bool) (*regex.Expr, error) {
	switch t := p.tok; {
	case t.kind == tokIRI:
		p.next()
		sym := t.text
		if inv {
			sym = "^" + sym
		}
		p.h = 0
		return p.path(regex.Expr{Kind: regex.Symbol, Sym: sym}), nil
	case p.isPunct("!"):
		p.next()
		return p.parseNegatedSet(inv)
	case p.isPunct("^"), p.isPunct("("):
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		if t.text == "^" {
			return p.parsePathAtom(!inv)
		}
		x, err := p.parsePathList("|", inv)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, p.errf("expected predicate, found %q", t.show())
	}
}

// parseNegatedSet parses what follows '!': one [^]IRI, or a parenthesized
// |-list of them. The set is one symbol: "!(", its |-separated members
// with the forward ones first and each direction sorted, then ")". Under
// inv every member's direction is flipped.
func (p *parser) parseNegatedSet(inv bool) (*regex.Expr, error) {
	var buf [4]string
	members := buf[:0]
	paren := p.isPunct("(")
	if paren {
		p.next()
	}
	for {
		flip := p.isPunct("^")
		if flip {
			p.next()
		}
		t := p.tok
		if t.kind != tokIRI {
			return nil, p.errf("expected IRI in negated property set, found %q", t.show())
		}
		if flip != inv {
			members = append(members, "^"+t.text)
		} else {
			members = append(members, t.text)
		}
		p.next()
		if !paren || !p.isPunct("|") {
			break
		}
		p.next()
	}
	if paren {
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	inverse := func(m string) int {
		if m[0] == '^' {
			return 1
		}
		return 0
	}
	slices.SortFunc(members, func(a, b string) int {
		return cmp.Or(inverse(a)-inverse(b), strings.Compare(a, b))
	})
	p.h = 0
	return p.path(regex.Expr{Kind: regex.Symbol, Sym: "!(" + strings.Join(members, "|") + ")"}), nil
}

// PathSymbol reads back a symbol of a path's 2RPQ expression, as the
// parser writes it: an IRI, an inverse IRI "^iri", or a negated
// property set "!(…)" of |-separated [^]IRIs. Reading allocates nothing.
type PathSymbol struct {
	Negated bool   // the symbol is a negated property set
	rest    string // the members not yet read
}

// ReadPathSymbol starts reading sym. An IRI or inverse IRI is read as
// one member, a negated set as its members in order.
func ReadPathSymbol(sym string) PathSymbol {
	if body, ok := strings.CutPrefix(sym, "!("); ok {
		return PathSymbol{Negated: true, rest: strings.TrimSuffix(body, ")")}
	}
	return PathSymbol{rest: sym}
}

// Next returns the next member's IRI and whether it is inverse; ok is
// false once every member has been read.
func (s *PathSymbol) Next() (iri string, inverse, ok bool) {
	if s.rest == "" {
		return "", false, false
	}
	m := s.rest
	if s.Negated {
		m, s.rest, _ = strings.Cut(m, "|")
	} else {
		s.rest = ""
	}
	iri, inverse = strings.CutPrefix(m, "^")
	return iri, inverse, true
}

func (p *parser) parseFilterConstraint() (*Expr, error) {
	// FILTER EXISTS {…} / FILTER NOT EXISTS {…}, which parseUnaryExpr
	// reads, / FILTER (expr) / FILTER builtin(…)
	if p.isWord("NOT") || p.isWord("EXISTS") {
		return p.parseUnaryExpr()
	}
	return p.parseBracketedOrPlainExpr()
}

// parseExists parses the group of an EXISTS or NOT EXISTS.
func (p *parser) parseExists(negated bool) (*Expr, error) {
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	p.h = 0 // the group is not part of the expression tree
	return p.expr(Expr{Kind: EExists, Pattern: g, Negated: negated}), nil
}

// ------------------------------- expressions -------------------------------

func (p *parser) parseExpr() (*Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *parser) parseOr() (*Expr, error)  { return p.parseChain(EBool, p.parseAnd, "||") }
func (p *parser) parseAnd() (*Expr, error) { return p.parseChain(EBool, p.parseCompare, "&&") }
func (p *parser) parseAdditive() (*Expr, error) {
	return p.parseChain(EArith, p.parseUnaryExpr, "+", "-", "*", "/")
}

// parseChain parses operands joined by any of the operators ops into a
// left-deep chain of kind nodes, one level higher per operator.
func (p *parser) parseChain(kind ExprKind, operand func() (*Expr, error), ops ...string) (*Expr, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		t := p.tok
		if t.kind != tokPunct || !slices.Contains(ops, t.text) {
			return left, nil
		}
		sub := p.h
		p.next()
		right, err := operand()
		if err != nil {
			return nil, err
		}
		if err := p.above(max(sub, p.h)); err != nil {
			return nil, err
		}
		left = p.expr(Expr{Kind: kind, Op: t.text, Subs: p.exprs(left, right)})
	}
}

func (p *parser) parseCompare() (*Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.tok; t.kind == tokPunct {
		switch t.text {
		case "=", "!=", "<", ">", "<=", ">=":
			sub := p.h
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.above(max(sub, p.h)); err != nil {
				return nil, err
			}
			return p.expr(Expr{Kind: ECompare, Op: t.text, Subs: p.exprs(left, right)}), nil
		}
	}
	negated := p.acceptKeyword("NOT")
	if negated && !p.isWord("IN") {
		return nil, p.errf("NOT must be followed by IN")
	}
	if p.acceptKeyword("IN") {
		sub := p.h
		args, err := p.parseArgList(false)
		if err != nil {
			return nil, err
		}
		if err := p.above(max(sub, p.h)); err != nil {
			return nil, err
		}
		return p.expr(Expr{Kind: EIn, Negated: negated, Subs: p.exprs(append([]*Expr{left}, args...)...)}), nil
	}
	return left, nil
}

func (p *parser) parseUnaryExpr() (*Expr, error) {
	t := p.tok
	p.h = 0 // a leaf, unless a case below builds higher
	switch {
	case p.isPunct("!"), p.isPunct("-"):
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		sub, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.above(p.h); err != nil {
			return nil, err
		}
		if t.text == "!" {
			return p.expr(Expr{Kind: ENot, Subs: p.exprs(sub)}), nil
		}
		return p.expr(Expr{Kind: EArith, Op: "neg", Subs: p.exprs(sub)}), nil
	case p.isPunct("("):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokVar:
		p.next()
		return p.expr(Expr{Kind: EVar, Var: t.text}), nil
	case t.kind == tokLiteral || t.kind == tokNumber:
		p.next()
		if p.isPunct("^^") {
			p.next()
			if p.next().kind != tokIRI {
				return nil, p.errf("datatype needs an IRI")
			}
		}
		return p.expr(Expr{Kind: EConst, Const: t.text}), nil
	case t.kind == tokIRI:
		p.next()
		// IRI constant or IRI-function call iri(…)
		if p.isPunct("(") {
			args, err := p.parseArgList(false)
			if err != nil {
				return nil, err
			}
			if err := p.above(p.h); err != nil {
				return nil, err
			}
			return p.expr(Expr{Kind: EFunc, Func: strings.ToUpper(t.text), Subs: p.exprs(args...)}), nil
		}
		return p.expr(Expr{Kind: EConst, Const: t.text}), nil
	case p.acceptKeyword("NOT"):
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errf("NOT must be followed by EXISTS")
		}
		return p.parseExists(true)
	case p.acceptKeyword("EXISTS"):
		return p.parseExists(false)
	case p.isWord("TRUE") || p.isWord("FALSE"):
		p.next()
		return p.expr(Expr{Kind: EConst, Const: strings.ToLower(t.text)}), nil
	case t.kind == tokWord:
		// builtin or aggregate: NAME(…)
		p.next()
		if !p.isPunct("(") {
			return nil, p.errf("unexpected keyword %q in expression", t.show())
		}
		args, err := p.parseArgList(true)
		if err != nil {
			return nil, err
		}
		if err := p.above(p.h); err != nil {
			return nil, err
		}
		return p.expr(Expr{Kind: EFunc, Func: upperWord(t.text), Subs: p.exprs(args...)}), nil
	}
	return nil, p.errf("unexpected %q in expression", t.show())
}

// parseArgList parses a parenthesized argument list; under agg it also
// takes an aggregate's DISTINCT, COUNT(*) and GROUP_CONCAT separator. It
// leaves in p.h the height of the highest argument, or -1 when there is
// none.
func (p *parser) parseArgList(agg bool) ([]*Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if agg {
		p.acceptKeyword("DISTINCT")
	}
	var args []*Expr
	sub := -1
	if agg && p.isPunct("*") {
		p.next()
	} else if !p.isPunct(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			sub = max(sub, p.h)
			if p.isPunct(",") {
				p.next()
				continue
			}
			if agg && p.isPunct(";") { // GROUP_CONCAT(… ; SEPARATOR="…")
				p.next()
				p.acceptKeyword("SEPARATOR")
				p.expectPunct("=")
				p.next()
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.h = sub
	return args, nil
}

// isAggregate reports whether the current token names an aggregate.
func (p *parser) isAggregate() bool {
	for _, name := range [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"} {
		if p.isWord(name) {
			return true
		}
	}
	return false
}
