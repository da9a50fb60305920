package sparql

// refParse is the two-pass SPARQL parser that sparql.Parse replaced: it
// lexes the whole query into a token slice, then runs recursive descent
// over the slice. It is kept, test-only, as the reference the one-pass
// parser is compared against (TestParseMatchesReference, FuzzParse).
// Its keywords fold with strings.ToUpper, so the comparisons skip inputs
// with ſ or ı in a word (see foldTrap). Its paths are built with the
// regex constructors, and ^ is applied after its operand is parsed, by
// refInverse rewriting that operand's tree. It refuses nesting as Parse
// does: it counts groups, expressions and path atoms on the way down,
// and measures each path or expression node it builds against
// textio.MaxDepth.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/loggen"
	"repro/internal/regex"
	"repro/internal/textio"
)

// TestParseMatchesReference runs Parse and refParse over the first 1,500
// queries of the 17 loggen sources at three seeds, corrupted queries
// included.
func TestParseMatchesReference(t *testing.T) {
	for _, src := range loggen.Sources() {
		for seed := int64(1); seed <= 3; seed++ {
			g := loggen.NewGen(src, seed)
			for i := 0; i < 1500; i++ {
				if msg := diffRef(g.Next()); msg != "" {
					t.Fatalf("%s seed %d: %s", src.Name, seed, msg)
				}
			}
		}
	}
}

// diffRef compares Parse with refParse, and ParsePath with refParsePath,
// on src. Both must fail with the same error text, or both succeed with
// the same Canonical() and feature battery, or the same path; nesting
// past the limit included. It returns "" when they agree or when src
// has a fold trap, which the comparison does not apply to.
func diffRef(src string) string {
	if foldTrap(src) {
		return ""
	}
	q, err := Parse(src)
	rq, rerr := refParse(src)
	switch {
	case err != nil || rerr != nil:
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			return fmt.Sprintf("%q: error %v, reference %v", src, err, rerr)
		}
	case battery(q) != battery(rq):
		return fmt.Sprintf("%q:\n%s\nreference:\n%s", src, battery(q), battery(rq))
	}
	pp, err := ParsePath(src)
	rp, rerr := refParsePath(src)
	if fmt.Sprint(err) != fmt.Sprint(rerr) || err == nil && !pp.Equal(rp) {
		return fmt.Sprintf("path %q: %v %v, reference %v %v", src, pp, err, rp, rerr)
	}
	return ""
}

// battery renders what the log studies read from a parsed query.
func battery(q *Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "canonical %s\n", q.Canonical())
	features := q.Features()
	for _, f := range Table3Features {
		if features[f] {
			fmt.Fprintf(&b, "feature %s\n", f)
		}
	}
	fmt.Fprintf(&b, "operators %s triples %d cq %v cqf %v c2rpqf %v\n",
		q.Operators().Name(), q.TripleCount(), q.IsCQ(), q.IsCQF(), q.IsC2RPQF())
	for _, pp := range q.PropertyPaths() {
		fmt.Fprintf(&b, "path %s\n", PathString(pp))
	}
	q.Walk(func(p *Pattern) {
		if p.Kind == PFilter {
			fmt.Fprintf(&b, "filter %v safe %v simple %v\n", p.Expr.Vars(), p.Expr.IsSafeFilter(), p.Expr.IsSimpleFilter())
		}
	})
	return b.String()
}

// foldTrap reports whether a word of src holds ſ or ı. strings.ToUpper
// folds them to S and I, so refParse reads such a word as a keyword,
// and Parse, matching keywords in ASCII only, does not.
func foldTrap(src string) bool {
	p := &parser{src: src}
	for p.scan(); p.tok.kind != tokEOF; p.scan() {
		if p.tok.kind == tokWord && strings.ContainsAny(p.tok.text, "ſı") {
			return true
		}
	}
	return false
}

type refTokKind int

const (
	refTokEOF refTokKind = iota
	refTokKeyword
	refTokVar     // ?x or $x
	refTokIRI     // <…> or prefixed name or 'a'
	refTokLiteral // "…" with optional @lang or ^^type
	refTokNumber
	refTokPunct // { } ( ) . ; , = != < > <= >= && || ! + - * / ^ | ?
	refTokBlank // _:b
)

type refToken struct {
	kind refTokKind
	text string // refKeywords upper-cased
	off  int
}

var refKeywords = map[string]bool{
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

// refLexer tokenizes SPARQL text. Punctuation relevant to property paths is
// produced as single-character tokens; the refParser reads paths from them.
type refLexer struct {
	src  string
	pos  int
	toks []refToken
}

func refLex(src string) ([]refToken, error) {
	l := &refLexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(refTokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '?' || c == '$':
			// variable — or a bare '?' path operator when not followed by
			// a name character
			l.pos++
			if start := l.pos; l.scanName(refIsVarChar) > start {
				l.emit(refTokVar, l.src[start:l.pos])
			} else {
				l.emit(refTokPunct, "?")
			}
		case c == '<':
			// IRI or comparison operator
			if end := strings.IndexByte(l.src[l.pos:], '>'); end >= 0 && !strings.ContainsAny(l.src[l.pos:l.pos+end], " \t\n{}") {
				iri := l.src[l.pos : l.pos+end+1]
				l.pos += end + 1
				l.emit(refTokIRI, iri)
			} else if strings.HasPrefix(l.src[l.pos:], "<=") {
				l.pos += 2
				l.emit(refTokPunct, "<=")
			} else {
				l.pos++
				l.emit(refTokPunct, "<")
			}
		case c == '"' || c == '\'':
			lit, err := l.lexLiteral(c)
			if err != nil {
				return nil, err
			}
			l.emit(refTokLiteral, lit)
		case c == '_' && strings.HasPrefix(l.src[l.pos:], "_:"):
			l.pos += 2
			start := l.pos
			l.scanName(refIsPNChar)
			l.emit(refTokBlank, l.src[start:l.pos])
		case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			start := l.pos
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				l.pos++
			}
			// a trailing dot is the triple terminator, not part of the number
			if l.src[l.pos-1] == '.' {
				l.pos--
			}
			l.emit(refTokNumber, l.src[start:l.pos])
		case strings.HasPrefix(l.src[l.pos:], "&&"), strings.HasPrefix(l.src[l.pos:], "||"),
			strings.HasPrefix(l.src[l.pos:], "!="), strings.HasPrefix(l.src[l.pos:], ">="),
			strings.HasPrefix(l.src[l.pos:], "^^"):
			l.emit(refTokPunct, l.src[l.pos:l.pos+2])
			l.pos += 2
		case strings.ContainsRune("{}().;,=>!+-*/^|[]", rune(c)):
			l.emit(refTokPunct, string(c))
			l.pos++
		case c == '_' || unicode.IsLetter(l.runeAt()):
			start := l.pos
			l.scanName(refIsPNChar)
			word := l.src[start:l.pos]
			// prefixed name? (word containing or followed by ':')
			if l.pos < len(l.src) && l.src[l.pos] == ':' {
				l.pos++
				l.scanName(refIsPNChar)
				l.emit(refTokIRI, l.src[start:l.pos])
				continue
			}
			if strings.Contains(word, ":") {
				l.emit(refTokIRI, word)
				continue
			}
			up := strings.ToUpper(word)
			if refKeywords[up] {
				l.emit(refTokKeyword, up)
			} else if word == "a" {
				l.emit(refTokIRI, "a") // rdf:type shorthand
			} else {
				// bare local name used as function (e.g. lang, str, regex)
				l.emit(refTokKeyword, up)
			}
		case c == ':':
			// prefixed name with empty prefix (:name)
			start := l.pos
			l.pos++
			l.scanName(refIsPNChar)
			l.emit(refTokIRI, l.src[start:l.pos])
		case c == '@':
			// language tag: attach to nothing; skip
			l.pos++
			l.scanName(refIsLangChar)
		default:
			return nil, fmt.Errorf("sparql: unexpected character %q at offset %d", c, l.pos)
		}
	}
}

// runeAt decodes the rune at l.pos; invalid UTF-8 gives utf8.RuneError,
// which no name accepts.
func (l *refLexer) runeAt() rune {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// scanName advances past the runes ok accepts, backs off trailing dots,
// which belong to the surrounding syntax, and returns the new offset.
func (l *refLexer) scanName(ok func(rune) bool) int {
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

func (l *refLexer) emit(k refTokKind, text string) {
	l.toks = append(l.toks, refToken{k, text, l.pos})
}

func (l *refLexer) skipSpaceAndComments() {
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

func (l *refLexer) lexLiteral(quote byte) (string, error) {
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
			// optional datatype ^^iri is handled by the ^^ refToken later;
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

func refIsPNChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

func refIsLangChar(r rune) bool {
	return unicode.IsLetter(r) || r == '-'
}

// refIsVarChar matches SPARQL VARNAME characters (no '-' or '.').
func refIsVarChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// refParse parses a SPARQL query string in the Section 9 fragment. Queries
// outside the fragment (or syntactically invalid ones — the logs of
// Table 2 contain millions of those) return an error; the analysis
// pipeline counts them as non-Valid.
func refParse(src string) (*Query, error) {
	return refParseAll(src, (*refParser).parseQuery)
}

// refParsePath parses a standalone property path such as wdt:P31/wdt:P279*
// with the grammar of a predicate position. IRIs are SPARQL IRI tokens:
// prefixed names, <…> IRIs, or the keyword a (rdf:type); a bare word
// other than a is a keyword, not an IRI.
func refParsePath(src string) (*regex.Expr, error) {
	return refParseAll(src, (*refParser).parsePropertyPath)
}

// refParseAll lexes src and parses it with parse, which must read every
// token.
func refParseAll[T any](src string, parse func(*refParser) (T, error)) (T, error) {
	var zero T
	toks, err := refLex(src)
	if err != nil {
		return zero, err
	}
	p := &refParser{toks: toks}
	x, err := parse(p)
	if err != nil {
		return zero, err
	}
	if p.peek().kind != refTokEOF {
		return zero, p.errf("trailing input %q", p.peek().text)
	}
	return x, nil
}

type refParser struct {
	toks  []refToken
	pos   int
	depth int // nesting of groups, expressions and path atoms
}

func (p *refParser) tooDeep() error {
	return p.errf("nesting deeper than %d levels", textio.MaxDepth)
}

// enter counts one level of nesting, failing past textio.MaxDepth.
func (p *refParser) enter() error {
	if p.depth++; p.depth > textio.MaxDepth {
		return p.tooDeep()
	}
	return nil
}

// refHeight returns the height of a tree: 0 for a node without
// children, one more than its highest child otherwise.
func refHeight[T any](x T, subs func(T) []T) int {
	h := 0
	for _, s := range subs(x) {
		h = max(h, refHeight(s, subs)+1)
	}
	return h
}

// checkExpr returns e, or the nesting error if e is too high.
func (p *refParser) checkExpr(e *Expr) (*Expr, error) {
	if refHeight(e, func(e *Expr) []*Expr { return e.Subs }) > textio.MaxDepth {
		return nil, p.tooDeep()
	}
	return e, nil
}

// checkPath returns e, or the nesting error if e is too high.
func (p *refParser) checkPath(e *regex.Expr) (*regex.Expr, error) {
	if refHeight(e, func(e *regex.Expr) []*regex.Expr { return e.Subs }) > textio.MaxDepth {
		return nil, p.tooDeep()
	}
	return e, nil
}

// peek clamps at the trailing EOF refToken so that error paths after an
// over-eager next() cannot index out of range.
func (p *refParser) peek() refToken {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *refParser) next() refToken {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}
func (p *refParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().off)
}

func (p *refParser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == refTokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) expectPunct(s string) error {
	if t := p.peek(); t.kind == refTokPunct && t.text == s {
		p.pos++
		return nil
	}
	return p.errf("expected %q, found %q", s, p.peek().text)
}

func (p *refParser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == refTokPunct && t.text == s
}

func (p *refParser) parseQuery() (*Query, error) {
	q := &Query{Prefixes: map[string]string{}, Limit: -1, Offset: -1}
	// prologue
	for {
		if p.acceptKeyword("PREFIX") {
			name := p.next()
			if name.kind != refTokIRI || !strings.HasSuffix(name.text, ":") && !strings.Contains(name.text, ":") {
				return nil, p.errf("malformed PREFIX declaration")
			}
			iri := p.next()
			if iri.kind != refTokIRI {
				return nil, p.errf("PREFIX needs an IRI")
			}
			pref := name.text
			if i := strings.IndexByte(pref, ':'); i >= 0 {
				pref = pref[:i]
			}
			q.Prefixes[pref] = iri.text
			continue
		}
		if p.acceptKeyword("BASE") {
			if p.next().kind != refTokIRI {
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
			t := p.peek()
			if t.kind == refTokVar {
				p.next()
				q.DescribeTerms = append(q.DescribeTerms, Term{TermVar, t.text})
				continue
			}
			if t.kind == refTokIRI {
				p.next()
				q.DescribeTerms = append(q.DescribeTerms, Term{TermIRI, t.text})
				continue
			}
			if t.kind == refTokPunct && t.text == "*" {
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
		return nil, p.errf("expected query form, found %q", p.peek().text)
	}
	// datasets
	for p.acceptKeyword("FROM") {
		p.acceptKeyword("NAMED")
		if p.next().kind != refTokIRI {
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

func (p *refParser) parseSelectClause(q *Query) error {
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	} else if p.acceptKeyword("REDUCED") {
		q.Reduced = true
	}
	if p.isPunct("*") {
		p.pos++
		q.Star = true
		return nil
	}
	for {
		t := p.peek()
		if t.kind == refTokVar {
			p.pos++
			q.Items = append(q.Items, SelectItem{Var: t.text})
			continue
		}
		if p.isPunct("(") {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if !p.acceptKeyword("AS") {
				return p.errf("expected AS in select expression")
			}
			v := p.next()
			if v.kind != refTokVar {
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

func (p *refParser) parseSolutionModifiers(q *Query) error {
	for {
		switch {
		case p.acceptKeyword("GROUP"):
			if !p.acceptKeyword("BY") {
				return p.errf("GROUP must be followed by BY")
			}
			n := 0
			for {
				t := p.peek()
				if t.kind == refTokVar {
					p.pos++
					q.GroupBy = append(q.GroupBy, t.text)
					n++
					continue
				}
				if p.isPunct("(") {
					p.pos++
					if _, err := p.parseExpr(); err != nil {
						return err
					}
					if p.acceptKeyword("AS") {
						if p.next().kind != refTokVar {
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
				t := p.peek()
				if t.kind == refTokVar {
					p.pos++
					n++
					continue
				}
				if t.kind == refTokKeyword && refIsBuiltinFunc(t.text) {
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
			if t.kind != refTokNumber {
				return p.errf("LIMIT needs a number")
			}
			v, _ := strconv.Atoi(t.text)
			q.Limit = v
		case p.acceptKeyword("OFFSET"):
			t := p.next()
			if t.kind != refTokNumber {
				return p.errf("OFFSET needs a number")
			}
			v, _ := strconv.Atoi(t.text)
			q.Offset = v
		case p.acceptKeyword("VALUES"):
			// trailing VALUES block
			vals, err := p.parseValues()
			if err != nil {
				return err
			}
			if q.Where == nil {
				q.Where = vals
			} else {
				q.Where = &Pattern{Kind: PGroup, Subs: []*Pattern{q.Where, vals}}
			}
		default:
			return nil
		}
	}
}

func (p *refParser) parseBracketedOrPlainExpr() (*Expr, error) {
	if p.isPunct("(") {
		p.pos++
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
func (p *refParser) parseGroup() (*Pattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	group := &Pattern{Kind: PGroup}
	for {
		t := p.peek()
		switch {
		case t.kind == refTokPunct && t.text == "}":
			p.pos++
			return group, nil
		case t.kind == refTokEOF:
			return nil, p.errf("unterminated group")
		case t.kind == refTokKeyword && t.text == "OPTIONAL":
			p.pos++
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: POptional, Subs: []*Pattern{sub}})
		case t.kind == refTokKeyword && t.text == "MINUS":
			p.pos++
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PMinus, Subs: []*Pattern{sub}})
		case t.kind == refTokKeyword && t.text == "FILTER":
			p.pos++
			e, err := p.parseFilterConstraint()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PFilter, Expr: e})
		case t.kind == refTokKeyword && t.text == "BIND":
			p.pos++
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
			if v.kind != refTokVar {
				return nil, p.errf("BIND needs a variable")
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PBind, Expr: e, BindVar: v.text})
		case t.kind == refTokKeyword && t.text == "GRAPH":
			p.pos++
			name, err := p.parseVarOrIRI()
			if err != nil {
				return nil, err
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PGraph, Name: name, Subs: []*Pattern{sub}})
		case t.kind == refTokKeyword && t.text == "SERVICE":
			p.pos++
			silent := p.acceptKeyword("SILENT")
			name, err := p.parseVarOrIRI()
			if err != nil {
				return nil, err
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PService, Name: name, Subs: []*Pattern{sub}, Silent: silent})
		case t.kind == refTokKeyword && t.text == "VALUES":
			p.pos++
			vals, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, vals)
		case t.kind == refTokKeyword && (t.text == "SELECT"):
			// subquery
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PSubquery, Query: sub})
		case t.kind == refTokPunct && t.text == "{":
			// nested group, possibly a UNION chain
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			node := first
			for p.acceptKeyword("UNION") {
				right, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				node = &Pattern{Kind: PUnion, Subs: []*Pattern{node, right}}
			}
			group.Subs = append(group.Subs, node)
		case t.kind == refTokPunct && t.text == ".":
			p.pos++ // stray dot separators are fine
		default:
			// triples block
			triples, err := p.parseTriplesBlock()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, triples...)
		}
	}
}

func (p *refParser) parseValues() (*Pattern, error) {
	out := &Pattern{Kind: PValues}
	single := false
	switch t := p.peek(); {
	case t.kind == refTokVar:
		p.pos++
		out.ValuesVars = []string{t.text}
		single = true
	case p.isPunct("("):
		p.pos++
		for p.peek().kind == refTokVar {
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
		if p.peek().kind == refTokEOF {
			return nil, p.errf("unterminated VALUES block")
		}
		if single {
			t := p.next()
			if t.kind != refTokIRI && t.kind != refTokLiteral && t.kind != refTokNumber && !(t.kind == refTokKeyword && t.text == "UNDEF") {
				return nil, p.errf("bad VALUES row entry %q", t.text)
			}
			out.ValuesRows++
			out.ValuesData = append(out.ValuesData, []string{refValuesEntry(t)})
			continue
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []string
		for !p.isPunct(")") {
			t := p.next()
			if t.kind != refTokIRI && t.kind != refTokLiteral && t.kind != refTokNumber && !(t.kind == refTokKeyword && t.text == "UNDEF") {
				return nil, p.errf("bad VALUES row entry %q", t.text)
			}
			row = append(row, refValuesEntry(t))
		}
		p.pos++
		out.ValuesRows++
		out.ValuesData = append(out.ValuesData, row)
	}
	p.pos++
	return out, nil
}

// refValuesEntry renders a VALUES row refToken; UNDEF becomes the empty string.
func refValuesEntry(t refToken) string {
	if t.kind == refTokKeyword && t.text == "UNDEF" {
		return ""
	}
	return t.text
}

func (p *refParser) parseVarOrIRI() (Term, error) {
	t := p.next()
	switch t.kind {
	case refTokVar:
		return Term{TermVar, t.text}, nil
	case refTokIRI:
		return Term{TermIRI, t.text}, nil
	}
	return Term{}, p.errf("expected variable or IRI, found %q", t.text)
}

// parseTriplesBlock parses a run of triples with ';' and ',' abbreviations
// until a non-triple refToken.
func (p *refParser) parseTriplesBlock() ([]*Pattern, error) {
	var out []*Pattern
	for {
		s, err := p.parseTerm(true)
		if err != nil {
			return nil, err
		}
		for {
			// predicate: variable or property path
			var pred Term
			var path *regex.Expr
			if t := p.peek(); t.kind == refTokVar {
				p.pos++
				pred = Term{TermVar, t.text}
			} else {
				pp, err := p.parsePropertyPath()
				if err != nil {
					return nil, err
				}
				if pp.Kind == regex.Symbol && !strings.HasPrefix(pp.Sym, "^") && !strings.HasPrefix(pp.Sym, "!(") {
					pred = Term{TermIRI, pp.Sym}
				} else {
					path = pp
				}
			}
			for {
				o, err := p.parseTerm(false)
				if err != nil {
					return nil, err
				}
				tp := &Pattern{Kind: PTriple, S: s, P: pred, O: o}
				if path != nil {
					tp.Kind = PPath
					tp.Path = path
				}
				out = append(out, tp)
				if p.isPunct(",") {
					p.pos++
					continue
				}
				break
			}
			if p.isPunct(";") {
				p.pos++
				// allow trailing ';' before '.' or '}'
				if t := p.peek(); t.kind == refTokPunct && (t.text == "." || t.text == "}") {
					break
				}
				continue
			}
			break
		}
		if p.isPunct(".") {
			p.pos++
			// another triples run may follow; stop on non-term tokens
			t := p.peek()
			if t.kind == refTokVar || t.kind == refTokIRI || t.kind == refTokBlank ||
				t.kind == refTokLiteral || t.kind == refTokNumber {
				continue
			}
		}
		return out, nil
	}
}

func (p *refParser) parseTerm(subjectPos bool) (Term, error) {
	t := p.next()
	switch t.kind {
	case refTokVar:
		return Term{TermVar, t.text}, nil
	case refTokIRI:
		return Term{TermIRI, t.text}, nil
	case refTokBlank:
		return Term{TermBlank, t.text}, nil
	case refTokLiteral:
		// consume optional ^^type
		if p.isPunct("^^") {
			p.pos++
			if p.next().kind != refTokIRI {
				return Term{}, p.errf("datatype needs an IRI")
			}
		}
		if subjectPos {
			return Term{}, p.errf("literal in subject position")
		}
		return Term{TermLiteral, t.text}, nil
	case refTokNumber:
		if subjectPos {
			return Term{}, p.errf("number in subject position")
		}
		return Term{TermLiteral, t.text}, nil
	case refTokKeyword:
		if t.text == "TRUE" || t.text == "FALSE" {
			return Term{TermLiteral, strings.ToLower(t.text)}, nil
		}
	case refTokPunct:
		if t.text == "[" {
			// anonymous blank node [] (property lists unsupported)
			if p.isPunct("]") {
				p.pos++
				return Term{TermBlank, fmt.Sprintf("anon%d", p.pos)}, nil
			}
		}
	}
	return Term{}, p.errf("expected RDF term, found %q", t.text)
}

// parsePropertyPath parses a property path at predicate position: its
// |-alternatives of /-sequences of unary items. Only tokens that continue
// the path are read, so the object term after it stays in place.
func (p *refParser) parsePropertyPath() (*regex.Expr, error) {
	return p.parsePathList("|")
}

// parsePathList parses one or more items separated by sep: /-sequences
// when sep is "|", unary items when sep is "/". Two or more items make a
// Union or Concat node.
func (p *refParser) parsePathList(sep string) (*regex.Expr, error) {
	first, err := p.parsePathItem(sep)
	if err != nil || !p.isPunct(sep) {
		return first, err
	}
	items := []*regex.Expr{first}
	for p.isPunct(sep) {
		p.pos++
		next, err := p.parsePathItem(sep)
		if err != nil {
			return nil, err
		}
		items = append(items, next)
	}
	if sep == "/" {
		return p.checkPath(regex.NewConcat(items...))
	}
	return p.checkPath(regex.NewUnion(items...))
}

func (p *refParser) parsePathItem(sep string) (*regex.Expr, error) {
	if sep == "|" {
		return p.parsePathList("/")
	}
	return p.parsePathUnary()
}

var refPathRepeats = map[string]func(*regex.Expr) *regex.Expr{"*": regex.NewStar, "+": regex.NewPlus, "?": regex.NewOpt}

// parsePathUnary parses an atom followed by any run of *, + and ?.
func (p *refParser) parsePathUnary() (*regex.Expr, error) {
	x, err := p.parsePathAtom()
	if err != nil {
		return nil, err
	}
	for t := p.peek(); t.kind == refTokPunct; t = p.peek() {
		repeat, ok := refPathRepeats[t.text]
		if !ok {
			break
		}
		if x, err = p.checkPath(repeat(x)); err != nil {
			return nil, err
		}
		p.pos++
	}
	return x, nil
}

// parsePathAtom parses an IRI, ^atom, a negated property set, or a
// parenthesized path.
func (p *refParser) parsePathAtom() (*regex.Expr, error) {
	switch t := p.peek(); {
	case t.kind == refTokIRI:
		p.pos++
		return regex.NewSymbol(t.text), nil
	case p.isPunct("^"):
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.pos++
		x, err := p.parsePathAtom()
		if err != nil {
			return nil, err
		}
		return refInverse(x), nil
	case p.isPunct("!"):
		p.pos++
		return p.parseNegatedSet()
	case p.isPunct("("):
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.pos++
		x, err := p.parsePathList("|")
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, p.errf("expected predicate, found %q", t.text)
	}
}

// parseNegatedSet parses what follows '!': one [^]IRI, or a parenthesized
// |-list of them, into one symbol (refNegSet).
func (p *refParser) parseNegatedSet() (*regex.Expr, error) {
	var members []string
	paren := p.isPunct("(")
	if paren {
		p.pos++
	}
	for {
		inv := p.isPunct("^")
		if inv {
			p.pos++
		}
		t := p.peek()
		if t.kind != refTokIRI {
			return nil, p.errf("expected IRI in negated property set, found %q", t.text)
		}
		if inv {
			members = append(members, "^"+t.text)
		} else {
			members = append(members, t.text)
		}
		p.pos++
		if !paren {
			return refNegSet(members), nil
		}
		if !p.isPunct("|") {
			break
		}
		p.pos++
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return refNegSet(members), nil
}

// refNegSet returns the symbol of a negated set with the given [^]IRI
// members: "!(" and the forward members, then the inverse ones, each
// sorted and all |-separated, then ")".
func refNegSet(members []string) *regex.Expr {
	var fwd, back []string
	for _, m := range members {
		if strings.HasPrefix(m, "^") {
			back = append(back, m)
		} else {
			fwd = append(fwd, m)
		}
	}
	slices.Sort(fwd)
	slices.Sort(back)
	return regex.NewSymbol("!(" + strings.Join(append(fwd, back...), "|") + ")")
}

// refInverse returns the expression of ^e: e's converse, a new tree with
// every sequence reversed and every atom's direction flipped.
func refInverse(e *regex.Expr) *regex.Expr {
	flip := func(m string) string {
		if iri, ok := strings.CutPrefix(m, "^"); ok {
			return iri
		}
		return "^" + m
	}
	subs := make([]*regex.Expr, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = refInverse(s)
	}
	switch e.Kind {
	case regex.Symbol:
		if body, ok := strings.CutPrefix(e.Sym, "!("); ok {
			members := strings.Split(strings.TrimSuffix(body, ")"), "|")
			for i, m := range members {
				members[i] = flip(m)
			}
			return refNegSet(members)
		}
		return regex.NewSymbol(flip(e.Sym))
	case regex.Concat:
		slices.Reverse(subs)
		return regex.NewConcat(subs...)
	case regex.Union:
		return regex.NewUnion(subs...)
	}
	return &regex.Expr{Kind: e.Kind, Subs: subs}
}

func (p *refParser) parseFilterConstraint() (*Expr, error) {
	// FILTER EXISTS {…} / FILTER NOT EXISTS {…} / FILTER (expr) /
	// FILTER builtin(…)
	if p.acceptKeyword("NOT") {
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errf("NOT must be followed by EXISTS")
		}
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EExists, Pattern: g, Negated: true}, nil
	}
	if p.acceptKeyword("EXISTS") {
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EExists, Pattern: g}, nil
	}
	return p.parseBracketedOrPlainExpr()
}

// ------------------------------- expressions -------------------------------

func (p *refParser) parseExpr() (*Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	return p.parseOr()
}

func (p *refParser) parseOr() (*Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isPunct("||") {
		p.pos++
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if left, err = p.checkExpr(&Expr{Kind: EBool, Op: "||", Subs: []*Expr{left, right}}); err != nil {
			return nil, err
		}
	}
	return left, nil
}

func (p *refParser) parseAnd() (*Expr, error) {
	left, err := p.parseCompare()
	if err != nil {
		return nil, err
	}
	for p.isPunct("&&") {
		p.pos++
		right, err := p.parseCompare()
		if err != nil {
			return nil, err
		}
		if left, err = p.checkExpr(&Expr{Kind: EBool, Op: "&&", Subs: []*Expr{left, right}}); err != nil {
			return nil, err
		}
	}
	return left, nil
}

var refCompareOps = map[string]bool{"=": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true}

func (p *refParser) parseCompare() (*Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == refTokPunct && refCompareOps[t.text] {
		p.pos++
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return p.checkExpr(&Expr{Kind: ECompare, Op: t.text, Subs: []*Expr{left, right}})
	}
	if p.acceptKeyword("IN") {
		args, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		return p.checkExpr(&Expr{Kind: EIn, Subs: append([]*Expr{left}, args...)})
	}
	if p.acceptKeyword("NOT") {
		if !p.acceptKeyword("IN") {
			return nil, p.errf("NOT must be followed by IN")
		}
		args, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		return p.checkExpr(&Expr{Kind: EIn, Negated: true, Subs: append([]*Expr{left}, args...)})
	}
	return left, nil
}

func (p *refParser) parseAdditive() (*Expr, error) {
	left, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != refTokPunct || (t.text != "+" && t.text != "-" && t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		if left, err = p.checkExpr(&Expr{Kind: EArith, Op: t.text, Subs: []*Expr{left, right}}); err != nil {
			return nil, err
		}
	}
}

func (p *refParser) parseUnaryExpr() (*Expr, error) {
	t := p.peek()
	switch {
	case t.kind == refTokPunct && t.text == "!":
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.pos++
		sub, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return p.checkExpr(&Expr{Kind: ENot, Subs: []*Expr{sub}})
	case t.kind == refTokPunct && t.text == "-":
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.pos++
		sub, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return p.checkExpr(&Expr{Kind: EArith, Op: "neg", Subs: []*Expr{sub}})
	case t.kind == refTokPunct && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == refTokVar:
		p.pos++
		return &Expr{Kind: EVar, Var: t.text}, nil
	case t.kind == refTokLiteral || t.kind == refTokNumber:
		p.pos++
		if p.isPunct("^^") {
			p.pos++
			if p.next().kind != refTokIRI {
				return nil, p.errf("datatype needs an IRI")
			}
		}
		return &Expr{Kind: EConst, Const: t.text}, nil
	case t.kind == refTokIRI:
		p.pos++
		// IRI constant or IRI-function call iri(…)
		if p.isPunct("(") {
			args, err := p.parseArgList()
			if err != nil {
				return nil, err
			}
			return p.checkExpr(&Expr{Kind: EFunc, Func: strings.ToUpper(t.text), Subs: args})
		}
		return &Expr{Kind: EConst, Const: t.text}, nil
	case t.kind == refTokKeyword && t.text == "NOT":
		p.pos++
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errf("NOT must be followed by EXISTS")
		}
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EExists, Pattern: g, Negated: true}, nil
	case t.kind == refTokKeyword && t.text == "EXISTS":
		p.pos++
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EExists, Pattern: g}, nil
	case t.kind == refTokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.pos++
		return &Expr{Kind: EConst, Const: strings.ToLower(t.text)}, nil
	case t.kind == refTokKeyword:
		// builtin or aggregate: NAME(…)
		name := t.text
		p.pos++
		if !p.isPunct("(") {
			return nil, p.errf("unexpected keyword %q in expression", name)
		}
		args, err := p.parseAggArgList(name)
		if err != nil {
			return nil, err
		}
		return p.checkExpr(&Expr{Kind: EFunc, Func: name, Subs: args})
	}
	return nil, p.errf("unexpected %q in expression", t.text)
}

func (p *refParser) parseArgList() ([]*Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []*Expr
	if p.isPunct(")") {
		p.pos++
		return args, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.isPunct(",") {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

// parseAggArgList handles COUNT(*), DISTINCT inside aggregates, and
// GROUP_CONCAT separators.
func (p *refParser) parseAggArgList(name string) ([]*Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.acceptKeyword("DISTINCT")
	var args []*Expr
	if p.isPunct("*") {
		p.pos++
	} else if !p.isPunct(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.isPunct(",") {
				p.pos++
				continue
			}
			if p.isPunct(";") { // GROUP_CONCAT(… ; SEPARATOR="…")
				p.pos++
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
	_ = name
	return args, nil
}

func refIsBuiltinFunc(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT":
		return true
	}
	return false
}
