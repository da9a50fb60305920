package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/propertypath"
)

// Parse parses a SPARQL query string in the Section 9 fragment. Queries
// outside the fragment (or syntactically invalid ones — the logs of
// Table 2 contain millions of those) return an error; the analysis
// pipeline counts them as non-Valid.
func Parse(src string) (*Query, error) {
	return parseAll(src, (*parser).parseQuery)
}

// MustParse panics on error; for tests.
func MustParse(src string) *Query {
	return must(Parse(src))
}

// ParsePath parses a standalone property path such as wdt:P31/wdt:P279*
// with the grammar of a predicate position. IRIs are SPARQL IRI tokens:
// prefixed names, <…> IRIs, or the keyword a (rdf:type); a bare word
// other than a is a keyword, not an IRI.
func ParsePath(src string) (*propertypath.Path, error) {
	return parseAll(src, (*parser).parsePropertyPath)
}

// MustParsePath panics on error; for tests and examples.
func MustParsePath(src string) *propertypath.Path {
	return must(ParsePath(src))
}

// parseAll lexes src and parses it with parse, which must read every
// token.
func parseAll[T any](src string, parse func(*parser) (T, error)) (T, error) {
	var zero T
	toks, err := lexSPARQL(src)
	if err != nil {
		return zero, err
	}
	p := &parser{toks: toks}
	x, err := parse(p)
	if err != nil {
		return zero, err
	}
	if p.peek().kind != tokEOF {
		return zero, p.errf("trailing input %q", p.peek().text)
	}
	return x, nil
}

func must[T any](x T, err error) T {
	if err != nil {
		panic(err)
	}
	return x
}

type parser struct {
	toks []token
	pos  int
}

// peek clamps at the trailing EOF token so that error paths after an
// over-eager next() cannot index out of range.
func (p *parser) peek() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().off)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if t := p.peek(); t.kind == tokPunct && t.text == s {
		p.pos++
		return nil
	}
	return p.errf("expected %q, found %q", s, p.peek().text)
}

func (p *parser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Prefixes: map[string]string{}, Limit: -1, Offset: -1}
	// prologue
	for {
		if p.acceptKeyword("PREFIX") {
			name := p.next()
			if name.kind != tokIRI || !strings.HasSuffix(name.text, ":") && !strings.Contains(name.text, ":") {
				return nil, p.errf("malformed PREFIX declaration")
			}
			iri := p.next()
			if iri.kind != tokIRI {
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
			t := p.peek()
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
			if t.kind == tokPunct && t.text == "*" {
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
		p.pos++
		q.Star = true
		return nil
	}
	for {
		t := p.peek()
		if t.kind == tokVar {
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
				t := p.peek()
				if t.kind == tokVar {
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
				t := p.peek()
				if t.kind == tokVar {
					p.pos++
					n++
					continue
				}
				if t.kind == tokKeyword && isBuiltinFunc(t.text) {
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
			v, _ := strconv.Atoi(t.text)
			q.Limit = v
		case p.acceptKeyword("OFFSET"):
			t := p.next()
			if t.kind != tokNumber {
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

func (p *parser) parseBracketedOrPlainExpr() (*Expr, error) {
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
func (p *parser) parseGroup() (*Pattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	group := &Pattern{Kind: PGroup}
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && t.text == "}":
			p.pos++
			return group, nil
		case t.kind == tokEOF:
			return nil, p.errf("unterminated group")
		case t.kind == tokKeyword && t.text == "OPTIONAL":
			p.pos++
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: POptional, Subs: []*Pattern{sub}})
		case t.kind == tokKeyword && t.text == "MINUS":
			p.pos++
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PMinus, Subs: []*Pattern{sub}})
		case t.kind == tokKeyword && t.text == "FILTER":
			p.pos++
			e, err := p.parseFilterConstraint()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PFilter, Expr: e})
		case t.kind == tokKeyword && t.text == "BIND":
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
			if v.kind != tokVar {
				return nil, p.errf("BIND needs a variable")
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PBind, Expr: e, BindVar: v.text})
		case t.kind == tokKeyword && t.text == "GRAPH":
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
		case t.kind == tokKeyword && t.text == "SERVICE":
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
		case t.kind == tokKeyword && t.text == "VALUES":
			p.pos++
			vals, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, vals)
		case t.kind == tokKeyword && (t.text == "SELECT"):
			// subquery
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			group.Subs = append(group.Subs, &Pattern{Kind: PSubquery, Query: sub})
		case t.kind == tokPunct && t.text == "{":
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
		case t.kind == tokPunct && t.text == ".":
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

func (p *parser) parseValues() (*Pattern, error) {
	out := &Pattern{Kind: PValues}
	single := false
	switch t := p.peek(); {
	case t.kind == tokVar:
		p.pos++
		out.ValuesVars = []string{t.text}
		single = true
	case p.isPunct("("):
		p.pos++
		for p.peek().kind == tokVar {
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
		if p.peek().kind == tokEOF {
			return nil, p.errf("unterminated VALUES block")
		}
		if single {
			t := p.next()
			if t.kind != tokIRI && t.kind != tokLiteral && t.kind != tokNumber && !(t.kind == tokKeyword && t.text == "UNDEF") {
				return nil, p.errf("bad VALUES row entry %q", t.text)
			}
			out.ValuesRows++
			out.ValuesData = append(out.ValuesData, []string{valuesEntry(t)})
			continue
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []string
		for !p.isPunct(")") {
			t := p.next()
			if t.kind != tokIRI && t.kind != tokLiteral && t.kind != tokNumber && !(t.kind == tokKeyword && t.text == "UNDEF") {
				return nil, p.errf("bad VALUES row entry %q", t.text)
			}
			row = append(row, valuesEntry(t))
		}
		p.pos++
		out.ValuesRows++
		out.ValuesData = append(out.ValuesData, row)
	}
	p.pos++
	return out, nil
}

// valuesEntry renders a VALUES row token; UNDEF becomes the empty string.
func valuesEntry(t token) string {
	if t.kind == tokKeyword && t.text == "UNDEF" {
		return ""
	}
	return t.text
}

func (p *parser) parseVarOrIRI() (Term, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return Term{TermVar, t.text}, nil
	case tokIRI:
		return Term{TermIRI, t.text}, nil
	}
	return Term{}, p.errf("expected variable or IRI, found %q", t.text)
}

// parseTriplesBlock parses a run of triples with ';' and ',' abbreviations
// until a non-triple token.
func (p *parser) parseTriplesBlock() ([]*Pattern, error) {
	var out []*Pattern
	for {
		s, err := p.parseTerm(true)
		if err != nil {
			return nil, err
		}
		for {
			// predicate: variable or property path
			var pred Term
			var path *propertypath.Path
			if t := p.peek(); t.kind == tokVar {
				p.pos++
				pred = Term{TermVar, t.text}
			} else {
				pp, err := p.parsePropertyPath()
				if err != nil {
					return nil, err
				}
				if pp.Kind == propertypath.IRI {
					pred = Term{TermIRI, pp.IRI}
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
				if t := p.peek(); t.kind == tokPunct && (t.text == "." || t.text == "}") {
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
			if t.kind == tokVar || t.kind == tokIRI || t.kind == tokBlank ||
				t.kind == tokLiteral || t.kind == tokNumber {
				continue
			}
		}
		return out, nil
	}
}

func (p *parser) parseTerm(subjectPos bool) (Term, error) {
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
			p.pos++
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
	case tokKeyword:
		if t.text == "TRUE" || t.text == "FALSE" {
			return Term{TermLiteral, strings.ToLower(t.text)}, nil
		}
	case tokPunct:
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
func (p *parser) parsePropertyPath() (*propertypath.Path, error) {
	return p.parsePathList("|")
}

// parsePathList parses one or more items separated by sep: /-sequences
// when sep is "|", unary items when sep is "/". Two or more items make an
// Alt or Seq node.
func (p *parser) parsePathList(sep string) (*propertypath.Path, error) {
	first, err := p.parsePathItem(sep)
	if err != nil || !p.isPunct(sep) {
		return first, err
	}
	kind := propertypath.Alt
	if sep == "/" {
		kind = propertypath.Seq
	}
	list := &propertypath.Path{Kind: kind, Subs: []*propertypath.Path{first}}
	for p.isPunct(sep) {
		p.pos++
		next, err := p.parsePathItem(sep)
		if err != nil {
			return nil, err
		}
		list.Subs = append(list.Subs, next)
	}
	return list, nil
}

func (p *parser) parsePathItem(sep string) (*propertypath.Path, error) {
	if sep == "|" {
		return p.parsePathList("/")
	}
	return p.parsePathUnary()
}

var pathRepeats = map[string]propertypath.Kind{"*": propertypath.Star, "+": propertypath.Plus, "?": propertypath.Opt}

// parsePathUnary parses an atom followed by any run of *, + and ?.
func (p *parser) parsePathUnary() (*propertypath.Path, error) {
	x, err := p.parsePathAtom()
	if err != nil {
		return nil, err
	}
	for t := p.peek(); t.kind == tokPunct; t = p.peek() {
		kind, ok := pathRepeats[t.text]
		if !ok {
			break
		}
		p.pos++
		x = &propertypath.Path{Kind: kind, Subs: []*propertypath.Path{x}}
	}
	return x, nil
}

// parsePathAtom parses an IRI, ^atom, a negated property set, or a
// parenthesized path.
func (p *parser) parsePathAtom() (*propertypath.Path, error) {
	switch t := p.peek(); {
	case t.kind == tokIRI:
		p.pos++
		return &propertypath.Path{Kind: propertypath.IRI, IRI: t.text}, nil
	case p.isPunct("^"):
		p.pos++
		x, err := p.parsePathAtom()
		if err != nil {
			return nil, err
		}
		return &propertypath.Path{Kind: propertypath.Inverse, Subs: []*propertypath.Path{x}}, nil
	case p.isPunct("!"):
		p.pos++
		return p.parseNegatedSet()
	case p.isPunct("("):
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
// |-list of them, whose labels are sorted.
func (p *parser) parseNegatedSet() (*propertypath.Path, error) {
	out := &propertypath.Path{Kind: propertypath.NegSet}
	paren := p.isPunct("(")
	if paren {
		p.pos++
	}
	for {
		inv := p.isPunct("^")
		if inv {
			p.pos++
		}
		switch t := p.peek(); {
		case t.kind != tokIRI:
			return nil, p.errf("expected IRI in negated property set, found %q", t.text)
		case inv:
			out.NegInv = append(out.NegInv, t.text)
		default:
			out.Neg = append(out.Neg, t.text)
		}
		p.pos++
		if !paren {
			return out, nil
		}
		if !p.isPunct("|") {
			break
		}
		p.pos++
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	slices.Sort(out.Neg)
	slices.Sort(out.NegInv)
	return out, nil
}

func (p *parser) parseFilterConstraint() (*Expr, error) {
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

func (p *parser) parseExpr() (*Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (*Expr, error) {
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
		left = &Expr{Kind: EBool, Op: "||", Subs: []*Expr{left, right}}
	}
	return left, nil
}

func (p *parser) parseAnd() (*Expr, error) {
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
		left = &Expr{Kind: EBool, Op: "&&", Subs: []*Expr{left, right}}
	}
	return left, nil
}

var compareOps = map[string]bool{"=": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true}

func (p *parser) parseCompare() (*Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokPunct && compareOps[t.text] {
		p.pos++
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ECompare, Op: t.text, Subs: []*Expr{left, right}}, nil
	}
	if p.acceptKeyword("IN") {
		args, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EIn, Subs: append([]*Expr{left}, args...)}, nil
	}
	if p.acceptKeyword("NOT") {
		if !p.acceptKeyword("IN") {
			return nil, p.errf("NOT must be followed by IN")
		}
		args, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EIn, Negated: true, Subs: append([]*Expr{left}, args...)}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (*Expr, error) {
	left, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct || (t.text != "+" && t.text != "-" && t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: EArith, Op: t.text, Subs: []*Expr{left, right}}
	}
}

func (p *parser) parseUnaryExpr() (*Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "!":
		p.pos++
		sub, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ENot, Subs: []*Expr{sub}}, nil
	case t.kind == tokPunct && t.text == "-":
		p.pos++
		sub, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EArith, Op: "neg", Subs: []*Expr{sub}}, nil
	case t.kind == tokPunct && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokVar:
		p.pos++
		return &Expr{Kind: EVar, Var: t.text}, nil
	case t.kind == tokLiteral || t.kind == tokNumber:
		p.pos++
		if p.isPunct("^^") {
			p.pos++
			if p.next().kind != tokIRI {
				return nil, p.errf("datatype needs an IRI")
			}
		}
		return &Expr{Kind: EConst, Const: t.text}, nil
	case t.kind == tokIRI:
		p.pos++
		// IRI constant or IRI-function call iri(…)
		if p.isPunct("(") {
			args, err := p.parseArgList()
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: EFunc, Func: strings.ToUpper(t.text), Subs: args}, nil
		}
		return &Expr{Kind: EConst, Const: t.text}, nil
	case t.kind == tokKeyword && t.text == "NOT":
		p.pos++
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errf("NOT must be followed by EXISTS")
		}
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EExists, Pattern: g, Negated: true}, nil
	case t.kind == tokKeyword && t.text == "EXISTS":
		p.pos++
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: EExists, Pattern: g}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.pos++
		return &Expr{Kind: EConst, Const: strings.ToLower(t.text)}, nil
	case t.kind == tokKeyword:
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
		return &Expr{Kind: EFunc, Func: name, Subs: args}, nil
	}
	return nil, p.errf("unexpected %q in expression", t.text)
}

func (p *parser) parseArgList() ([]*Expr, error) {
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
func (p *parser) parseAggArgList(name string) ([]*Expr, error) {
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

func isBuiltinFunc(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT":
		return true
	}
	return false
}
