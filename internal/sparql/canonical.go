package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/regex"
)

// writeCanonical renders a parsed query into a normalized single-line form
// used for duplicate elimination (the Unique columns of the Section 9
// studies). The rendering is whitespace- and case-normalized but keeps the
// syntactic structure (it does not canonicalize variable names, matching
// the studies' string-level dedup after parsing).
func writeCanonical(q *Query, b *strings.Builder) {
	// prefixes are resolved away from the canonical form: two queries that
	// differ only in prefix declarations but expand identically should
	// dedup; we approximate by expanding prefixed names.
	switch q.Type {
	case Select:
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		if q.Reduced {
			b.WriteString("REDUCED ")
		}
		if q.Star {
			b.WriteString("* ")
		}
		for _, it := range q.Items {
			if it.Expr != nil {
				fmt.Fprintf(b, "(%s AS ?%s) ", canonExpr(it.Expr, q), it.Var)
			} else {
				b.WriteString("?" + it.Var + " ")
			}
		}
	case Ask:
		b.WriteString("ASK ")
	case Construct:
		b.WriteString("CONSTRUCT { ")
		for _, t := range q.Template {
			writeCanonPattern(t, q, b)
		}
		b.WriteString("} ")
	case Describe:
		b.WriteString("DESCRIBE ")
		for _, t := range q.DescribeTerms {
			writeTerm(b, t, q)
			b.WriteByte(' ')
		}
	}
	if q.Where != nil {
		b.WriteString("WHERE { ")
		writeCanonPattern(q.Where, q, b)
		b.WriteString("} ")
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(b, "GROUP BY %s ", strings.Join(q.GroupBy, " "))
	}
	for _, h := range q.Having {
		fmt.Fprintf(b, "HAVING (%s) ", canonExpr(h, q))
	}
	if q.OrderBy > 0 {
		fmt.Fprintf(b, "ORDER BY [%d] ", q.OrderBy)
	}
	if q.Limit >= 0 {
		b.WriteString("LIMIT " + strconv.Itoa(q.Limit) + " ")
	}
	if q.Offset >= 0 {
		b.WriteString("OFFSET " + strconv.Itoa(q.Offset) + " ")
	}
}

// writeTerm writes t: a variable as ?x, a blank node as _:b, a literal
// in quotes, and an IRI with its prefix expanded against q's prologue
// when q is not nil.
func writeTerm(b *strings.Builder, t Term, q *Query) {
	switch t.Kind {
	case TermIRI:
		b.WriteString(expandIRI(t.Value, q))
		return
	case TermVar:
		b.WriteByte('?')
	case TermBlank:
		b.WriteString("_:")
	case TermLiteral:
		b.WriteString(`"` + t.Value + `"`)
		return
	}
	b.WriteString(t.Value)
}

// expandIRI resolves a prefixed name against the query's prologue.
func expandIRI(iri string, q *Query) string {
	if strings.HasPrefix(iri, "<") || q == nil {
		return iri
	}
	i := strings.IndexByte(iri, ':')
	if i < 0 {
		return iri
	}
	if base, ok := q.Prefixes[iri[:i]]; ok {
		return "<" + strings.TrimSuffix(strings.TrimPrefix(base, "<"), ">") + iri[i+1:] + ">"
	}
	return iri
}

// PathString renders a property path's expression in SPARQL syntax, its
// IRIs as written: the text ParsePath reads back to the same expression.
func PathString(e *regex.Expr) string {
	var b strings.Builder
	writePath(&b, e, nil, 0)
	return b.String()
}

// writePath writes e in SPARQL syntax with the fewest parentheses, each
// IRI expanded as writeTerm expands a predicate. prec is what the context
// binds: 0 nothing, 1 a | member, 2 a / member, 3 the operand of *, + or ?.
func writePath(b *strings.Builder, e *regex.Expr, q *Query, prec int) {
	switch e.Kind {
	case regex.Symbol:
		sym := ReadPathSymbol(e.Sym)
		if sym.Negated {
			b.WriteString("!(")
		}
		for i := 0; ; i++ {
			iri, inverse, ok := sym.Next()
			if !ok {
				break
			}
			if i > 0 {
				b.WriteByte('|')
			}
			if inverse {
				b.WriteByte('^')
			}
			b.WriteString(expandIRI(iri, q))
		}
		if sym.Negated {
			b.WriteByte(')')
		}
	case regex.Concat, regex.Union:
		sep, own := byte('|'), 1
		if e.Kind == regex.Concat {
			sep, own = '/', 2
		}
		if prec >= own {
			b.WriteByte('(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteByte(sep)
			}
			writePath(b, s, q, own)
		}
		if prec >= own {
			b.WriteByte(')')
		}
	case regex.Star, regex.Plus, regex.Opt:
		writePath(b, e.Sub(), q, 3)
		b.WriteByte("*+?"[e.Kind-regex.Star])
	}
}

func writeCanonPattern(p *Pattern, q *Query, b *strings.Builder) {
	switch p.Kind {
	case PGroup:
		for _, s := range p.Subs {
			writeCanonPattern(s, q, b)
		}
	case PTriple, PPath:
		writeTerm(b, p.S, q)
		b.WriteByte(' ')
		if p.Kind == PPath {
			writePath(b, p.Path, q, 0)
		} else {
			writeTerm(b, p.P, q)
		}
		b.WriteByte(' ')
		writeTerm(b, p.O, q)
		b.WriteString(" . ")
	case PFilter:
		fmt.Fprintf(b, "FILTER(%s) ", canonExpr(p.Expr, q))
	case PUnion:
		b.WriteString("{ ")
		writeCanonPattern(p.Subs[0], q, b)
		b.WriteString("} UNION { ")
		writeCanonPattern(p.Subs[1], q, b)
		b.WriteString("} ")
	case POptional:
		b.WriteString("OPTIONAL { ")
		writeCanonPattern(p.Subs[0], q, b)
		b.WriteString("} ")
	case PGraph:
		b.WriteString("GRAPH ")
		writeTerm(b, p.Name, q)
		b.WriteString(" { ")
		writeCanonPattern(p.Subs[0], q, b)
		b.WriteString("} ")
	case PBind:
		fmt.Fprintf(b, "BIND(%s AS ?%s) ", canonExpr(p.Expr, q), p.BindVar)
	case PValues:
		fmt.Fprintf(b, "VALUES (%s) [%d rows] ", strings.Join(p.ValuesVars, " "), p.ValuesRows)
	case PService:
		b.WriteString("SERVICE ")
		writeTerm(b, p.Name, q)
		b.WriteString(" { ")
		writeCanonPattern(p.Subs[0], q, b)
		b.WriteString("} ")
	case PMinus:
		b.WriteString("MINUS { ")
		writeCanonPattern(p.Subs[0], q, b)
		b.WriteString("} ")
	case PSubquery:
		b.WriteString("{ ")
		writeCanonical(p.Query, b)
		b.WriteString("} ")
	}
}

func canonExpr(e *Expr, q *Query) string {
	if e == nil {
		return ""
	}
	switch e.Kind {
	case EVar:
		return "?" + e.Var
	case EConst:
		return expandIRI(e.Const, q)
	case ECompare, EBool, EArith:
		if e.Op == "neg" {
			return "-" + canonExpr(e.Subs[0], q)
		}
		return "(" + canonExpr(e.Subs[0], q) + e.Op + canonExpr(e.Subs[1], q) + ")"
	case ENot:
		return "!(" + canonExpr(e.Subs[0], q) + ")"
	case EFunc:
		parts := make([]string, len(e.Subs))
		for i, s := range e.Subs {
			parts[i] = canonExpr(s, q)
		}
		return e.Func + "(" + strings.Join(parts, ",") + ")"
	case EExists:
		var b strings.Builder
		if e.Negated {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS { ")
		writeCanonPattern(e.Pattern, q, &b)
		b.WriteString("}")
		return b.String()
	case EIn:
		parts := make([]string, 0, len(e.Subs)-1)
		for _, s := range e.Subs[1:] {
			parts = append(parts, canonExpr(s, q))
		}
		sort.Strings(parts)
		neg := ""
		if e.Negated {
			neg = "NOT "
		}
		return canonExpr(e.Subs[0], q) + " " + neg + "IN(" + strings.Join(parts, ",") + ")"
	}
	return "?"
}
