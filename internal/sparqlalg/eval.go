package sparqlalg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/propertypath"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Solution is a mapping from variables to RDF terms (values as strings).
type Solution map[string]string

// clone copies the solution.
func (s Solution) clone() Solution {
	out := make(Solution, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// compatible reports whether two solutions agree on shared variables — the
// compatibility notion underlying SPARQL joins (Pérez et al.).
func (s Solution) compatible(t Solution) bool {
	for k, v := range s {
		if w, ok := t[k]; ok && w != v {
			return false
		}
	}
	return true
}

func (s Solution) merge(t Solution) Solution {
	out := s.clone()
	for k, v := range t {
		out[k] = v
	}
	return out
}

// Eval evaluates the query's pattern over the graph and returns the
// solution multiset after projection and solution modifiers (DISTINCT,
// ORDER BY is ignored — analysis only needs set semantics — LIMIT/OFFSET
// applied). ASK queries return zero or one empty solution.
func Eval(g *rdf.Graph, q *sparql.Query) ([]Solution, error) {
	var sols []Solution
	if q.Where == nil {
		sols = []Solution{{}}
	} else {
		var err error
		sols, err = evalPattern(g, q.Where)
		if err != nil {
			return nil, err
		}
	}
	switch q.Type {
	case sparql.Ask:
		if len(sols) > 0 {
			return []Solution{{}}, nil
		}
		return nil, nil
	case sparql.Select:
		if !q.Star {
			projected := make([]Solution, len(sols))
			for i, s := range sols {
				ps := Solution{}
				for _, it := range q.Items {
					if it.Expr == nil {
						if v, ok := s[it.Var]; ok {
							ps[it.Var] = v
						}
					}
					// aggregate select expressions are out of scope for the
					// evaluator (the analyses never evaluate them)
				}
				projected[i] = ps
			}
			sols = projected
		}
		if q.Distinct {
			sols = distinct(sols)
		}
		if q.Offset > 0 {
			if q.Offset >= len(sols) {
				sols = nil
			} else {
				sols = sols[q.Offset:]
			}
		}
		if q.Limit >= 0 && q.Limit < len(sols) {
			sols = sols[:q.Limit]
		}
	}
	return sols, nil
}

func distinct(sols []Solution) []Solution {
	seen := map[string]bool{}
	var out []Solution
	for _, s := range sols {
		k := solKey(s)
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

func solKey(s Solution) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, s[k])
	}
	return b.String()
}

// IsAnswer decides the Evaluation problem of Section 9.1 (Pérez et al.):
// is μ an answer to the pattern over the dataset?
func IsAnswer(g *rdf.Graph, q *sparql.Query, mu Solution) (bool, error) {
	sols, err := Eval(g, q)
	if err != nil {
		return false, err
	}
	want := solKey(mu)
	for _, s := range sols {
		if solKey(s) == want {
			return true, nil
		}
	}
	return false, nil
}

func evalPattern(g *rdf.Graph, p *sparql.Pattern) ([]Solution, error) {
	switch p.Kind {
	case sparql.PGroup:
		sols := []Solution{{}}
		for _, c := range p.Subs {
			switch c.Kind {
			case sparql.PFilter:
				var kept []Solution
				for _, s := range sols {
					ok, err := evalFilter(g, c.Expr, s)
					if err != nil {
						return nil, err
					}
					if ok {
						kept = append(kept, s)
					}
				}
				sols = kept
			case sparql.POptional:
				right, err := evalPattern(g, c.Subs[0])
				if err != nil {
					return nil, err
				}
				sols = leftJoin(sols, right)
			case sparql.PMinus:
				right, err := evalPattern(g, c.Subs[0])
				if err != nil {
					return nil, err
				}
				sols = minus(sols, right)
			case sparql.PBind:
				var next []Solution
				for _, s := range sols {
					v, err := evalExprValue(g, c.Expr, s)
					if err == nil && v != "" {
						s2 := s.clone()
						s2[c.BindVar] = v
						next = append(next, s2)
					} else {
						next = append(next, s)
					}
				}
				sols = next
			default:
				right, err := evalPattern(g, c)
				if err != nil {
					return nil, err
				}
				sols = join(sols, right)
			}
			if len(sols) == 0 {
				// joins and filters can only shrink; short-circuit except
				// that OPTIONAL/MINUS of an empty left side stays empty too
				break
			}
		}
		return sols, nil
	case sparql.PTriple:
		return evalTriple(g, p), nil
	case sparql.PPath:
		return evalPathPattern(g, p), nil
	case sparql.PUnion:
		l, err := evalPattern(g, p.Subs[0])
		if err != nil {
			return nil, err
		}
		r, err := evalPattern(g, p.Subs[1])
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case sparql.POptional:
		return evalPattern(g, &sparql.Pattern{Kind: sparql.PGroup, Subs: []*sparql.Pattern{p}})
	case sparql.PGraph, sparql.PService:
		// single-graph store: evaluate the body against the same graph
		return evalPattern(g, p.Subs[0])
	case sparql.PValues:
		var out []Solution
		for _, row := range p.ValuesData {
			s := Solution{}
			for i, v := range p.ValuesVars {
				if i < len(row) && row[i] != "" {
					s[v] = row[i]
				}
			}
			out = append(out, s)
		}
		return out, nil
	case sparql.PSubquery:
		return Eval(g, p.Query)
	case sparql.PFilter:
		return nil, fmt.Errorf("sparqlalg: dangling FILTER")
	case sparql.PMinus:
		return []Solution{{}}, nil
	case sparql.PBind:
		return []Solution{{}}, nil
	}
	return nil, fmt.Errorf("sparqlalg: unsupported pattern kind %d", p.Kind)
}

func join(l, r []Solution) []Solution {
	var out []Solution
	for _, a := range l {
		for _, b := range r {
			if a.compatible(b) {
				out = append(out, a.merge(b))
			}
		}
	}
	return out
}

func leftJoin(l, r []Solution) []Solution {
	var out []Solution
	for _, a := range l {
		matched := false
		for _, b := range r {
			if a.compatible(b) {
				out = append(out, a.merge(b))
				matched = true
			}
		}
		if !matched {
			out = append(out, a)
		}
	}
	return out
}

func minus(l, r []Solution) []Solution {
	var out []Solution
	for _, a := range l {
		excluded := false
		for _, b := range r {
			if a.compatible(b) && sharesVar(a, b) {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, a)
		}
	}
	return out
}

func sharesVar(a, b Solution) bool {
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}

func evalTriple(g *rdf.Graph, p *sparql.Pattern) []Solution {
	s, pr, o := termPattern(p.S), termPattern(p.P), termPattern(p.O)
	var out []Solution
	for _, t := range g.Match(s, pr, o) {
		sol := Solution{}
		ok := bindTerm(p.S, t.S, sol) && bindTerm(p.P, t.P, sol) && bindTerm(p.O, t.O, sol)
		if ok {
			out = append(out, sol)
		}
	}
	return out
}

// termPattern renders a term as a Match argument ("" = wildcard).
func termPattern(t sparql.Term) string {
	if t.IsVarLike() {
		return ""
	}
	return t.Value
}

func bindTerm(t sparql.Term, value string, sol Solution) bool {
	if !t.IsVarLike() {
		return t.Value == value
	}
	if prev, ok := sol[t.Value]; ok {
		return prev == value
	}
	sol[t.Value] = value
	return true
}

func evalPathPattern(g *rdf.Graph, p *sparql.Pattern) []Solution {
	var starts []string
	if p.S.IsVarLike() {
		// all nodes of the graph
		set := map[string]bool{}
		for _, s := range g.Subjects() {
			set[s] = true
		}
		for _, o := range g.Objects() {
			set[o] = true
		}
		for n := range set {
			starts = append(starts, n)
		}
		sort.Strings(starts)
	} else {
		starts = []string{p.S.Value}
	}
	var out []Solution
	for _, start := range starts {
		for _, end := range propertypath.Eval(g, p.Path, start) {
			sol := Solution{}
			if bindTerm(p.S, start, sol) && bindTerm(p.O, end, sol) {
				out = append(out, sol)
			}
		}
	}
	return out
}

// evalFilter evaluates a filter constraint under a solution; unsupported
// builtins evaluate to an error, which the caller treats as false-ish by
// propagating (matching SPARQL's error semantics would drop the row; we
// drop it too by returning false, nil for unknown functions).
func evalFilter(g *rdf.Graph, e *sparql.Expr, s Solution) (bool, error) {
	switch e.Kind {
	case sparql.EBool:
		l, err := evalFilter(g, e.Subs[0], s)
		if err != nil {
			return false, err
		}
		r, err := evalFilter(g, e.Subs[1], s)
		if err != nil {
			return false, err
		}
		if e.Op == "&&" {
			return l && r, nil
		}
		return l || r, nil
	case sparql.ENot:
		v, err := evalFilter(g, e.Subs[0], s)
		return !v, err
	case sparql.ECompare:
		l, errL := evalExprValue(g, e.Subs[0], s)
		r, errR := evalExprValue(g, e.Subs[1], s)
		if errL != nil || errR != nil {
			return false, nil // error semantics: row dropped
		}
		return compareValues(l, r, e.Op), nil
	case sparql.EExists:
		sub, err := evalPattern(g, e.Pattern)
		if err != nil {
			return false, err
		}
		found := false
		for _, b := range sub {
			if s.compatible(b) {
				found = true
				break
			}
		}
		if e.Negated {
			return !found, nil
		}
		return found, nil
	case sparql.EIn:
		v, err := evalExprValue(g, e.Subs[0], s)
		if err != nil {
			return false, nil
		}
		found := false
		for _, cand := range e.Subs[1:] {
			c, err := evalExprValue(g, cand, s)
			if err == nil && c == v {
				found = true
				break
			}
		}
		if e.Negated {
			return !found, nil
		}
		return found, nil
	case sparql.EFunc:
		switch e.Func {
		case "BOUND":
			if len(e.Subs) == 1 && e.Subs[0].Kind == sparql.EVar {
				_, ok := s[e.Subs[0].Var]
				return ok, nil
			}
		}
		return false, nil
	case sparql.EVar:
		_, ok := s[e.Var]
		return ok, nil
	case sparql.EConst:
		return e.Const == "true", nil
	}
	return false, nil
}

func evalExprValue(g *rdf.Graph, e *sparql.Expr, s Solution) (string, error) {
	switch e.Kind {
	case sparql.EVar:
		if v, ok := s[e.Var]; ok {
			return v, nil
		}
		return "", fmt.Errorf("unbound variable ?%s", e.Var)
	case sparql.EConst:
		return e.Const, nil
	case sparql.EFunc:
		switch e.Func {
		case "STR":
			if len(e.Subs) == 1 {
				return evalExprValue(g, e.Subs[0], s)
			}
		case "LANG":
			// the tree abstraction drops language tags; evaluate to ""
			return "", nil
		}
		return "", fmt.Errorf("unsupported function %s", e.Func)
	case sparql.EArith:
		if e.Op == "neg" {
			v, err := evalNumber(g, e.Subs[0], s)
			if err != nil {
				return "", err
			}
			return formatNumber(-v), nil
		}
		l, err := evalNumber(g, e.Subs[0], s)
		if err != nil {
			return "", err
		}
		r, err := evalNumber(g, e.Subs[1], s)
		if err != nil {
			return "", err
		}
		switch e.Op {
		case "+":
			return formatNumber(l + r), nil
		case "-":
			return formatNumber(l - r), nil
		case "*":
			return formatNumber(l * r), nil
		case "/":
			if r == 0 {
				return "", fmt.Errorf("division by zero")
			}
			return formatNumber(l / r), nil
		}
	}
	return "", fmt.Errorf("unsupported expression")
}

func evalNumber(g *rdf.Graph, e *sparql.Expr, s Solution) (float64, error) {
	v, err := evalExprValue(g, e, s)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(v, 64)
}

func formatNumber(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func compareValues(l, r, op string) bool {
	lf, errL := strconv.ParseFloat(l, 64)
	rf, errR := strconv.ParseFloat(r, 64)
	if errL == nil && errR == nil {
		switch op {
		case "=":
			return lf == rf
		case "!=":
			return lf != rf
		case "<":
			return lf < rf
		case ">":
			return lf > rf
		case "<=":
			return lf <= rf
		case ">=":
			return lf >= rf
		}
	}
	switch op {
	case "=":
		return l == r
	case "!=":
		return l != r
	case "<":
		return l < r
	case ">":
		return l > r
	case "<=":
		return l <= r
	case ">=":
		return l >= r
	}
	return false
}
