package sparql

import (
	"strings"

	"repro/internal/regex"
)

// Feature identifies a SPARQL feature counted in Table 3.
type Feature string

// The features of Table 3, in the paper's row order.
const (
	FDistinct     Feature = "Distinct"
	FLimit        Feature = "Limit"
	FOffset       Feature = "Offset"
	FOrderBy      Feature = "Order By"
	FFilter       Feature = "Filter"
	FAnd          Feature = "And"
	FOptional     Feature = "Optional"
	FUnion        Feature = "Union"
	FGraph        Feature = "Graph"
	FValues       Feature = "Values"
	FNotExists    Feature = "Not Exists"
	FMinus        Feature = "Minus"
	FExists       Feature = "Exists"
	FGroupBy      Feature = "Group By"
	FCount        Feature = "Count"
	FHaving       Feature = "Having"
	FAvg          Feature = "Avg"
	FMin          Feature = "Min"
	FMax          Feature = "Max"
	FSum          Feature = "Sum"
	FService      Feature = "Service"
	FPropertyPath Feature = "property paths (RPQs)"
)

// Table3Features lists the features in the paper's row order.
var Table3Features = []Feature{
	FDistinct, FLimit, FOffset, FOrderBy, FFilter, FAnd, FOptional, FUnion,
	FGraph, FValues, FNotExists, FMinus, FExists, FGroupBy, FCount, FHaving,
	FAvg, FMin, FMax, FSum, FService, FPropertyPath,
}

// Features returns the set of Table 3 features the query uses.
func (q *Query) Features() map[Feature]bool {
	f := map[Feature]bool{}
	if q.Distinct {
		f[FDistinct] = true
	}
	if q.Limit >= 0 {
		f[FLimit] = true
	}
	if q.Offset >= 0 {
		f[FOffset] = true
	}
	if q.OrderBy > 0 {
		f[FOrderBy] = true
	}
	if len(q.GroupBy) > 0 {
		f[FGroupBy] = true
	}
	if len(q.Having) > 0 {
		f[FHaving] = true
	}
	var exprs []*Expr
	exprs = append(exprs, q.Having...)
	for _, it := range q.Items {
		if it.Expr != nil {
			exprs = append(exprs, it.Expr)
		}
	}
	// The And feature is the conjunction operator: a group joining ≥ 2
	// sub-patterns (after Bonifati et al.'s operator-set analysis).
	q.Walk(func(p *Pattern) {
		switch p.Kind {
		case PGroup:
			if countJoinOperands(p) >= 2 {
				f[FAnd] = true
			}
		case PFilter:
			f[FFilter] = true
			exprs = append(exprs, p.Expr)
		case PUnion:
			f[FUnion] = true
		case POptional:
			f[FOptional] = true
		case PGraph:
			f[FGraph] = true
		case PValues:
			f[FValues] = true
		case PService:
			f[FService] = true
		case PMinus:
			f[FMinus] = true
		case PPath:
			f[FPropertyPath] = true
		case PBind:
			exprs = append(exprs, p.Expr)
		case PSubquery:
			for feat := range p.Query.Features() {
				f[feat] = true
			}
		}
	})
	for _, e := range exprs {
		markExprFeatures(e, f)
	}
	return f
}

// countJoinOperands counts the conjunctive operands of a group. Filters,
// binds, VALUES blocks, SERVICE calls and OPTIONAL parts are not And
// operands: in the SPARQL algebra they attach by filtering, extension,
// joins with constant tables, federation, and left-join respectively —
// the paper's feature analysis counts the And operator between proper
// pattern conjuncts.
func countJoinOperands(p *Pattern) int {
	n := 0
	for _, s := range p.Subs {
		switch s.Kind {
		case PFilter, PBind, PValues, PService, POptional:
		default:
			n++
		}
	}
	return n
}

func markExprFeatures(e *Expr, f map[Feature]bool) {
	if e == nil {
		return
	}
	switch e.Kind {
	case EExists:
		if e.Negated {
			f[FNotExists] = true
		} else {
			f[FExists] = true
		}
	case EFunc:
		switch e.Func {
		case "COUNT":
			f[FCount] = true
		case "AVG":
			f[FAvg] = true
		case "MIN":
			f[FMin] = true
		case "MAX":
			f[FMax] = true
		case "SUM":
			f[FSum] = true
		}
	}
	for _, s := range e.Subs {
		markExprFeatures(s, f)
	}
}

// TripleCount returns the number of triple patterns (including property-
// path patterns) in the query's pattern — the measure of Figure 3; a
// CONSTRUCT template does not count.
func (q *Query) TripleCount() int {
	n := 0
	if q.Where != nil {
		walkPattern(q.Where, func(p *Pattern) {
			if p.Kind == PTriple || p.Kind == PPath {
				n++
			}
		})
	}
	return n
}

// PropertyPaths returns every property path occurring in the query.
func (q *Query) PropertyPaths() []*regex.Expr {
	var out []*regex.Expr
	q.Walk(func(p *Pattern) {
		if p.Kind == PPath {
			out = append(out, p.Path)
		}
	})
	return out
}

// OperatorSet classifies the pattern operators used, for the Table 4/5
// fragment analysis: which of And, Filter, and property paths (2RPQ) occur,
// and whether anything beyond them occurs.
type OperatorSet struct {
	And, Filter, Path bool
	// Beyond is true when the query uses any operator outside
	// {And, Filter, property paths}: Union, Optional, Graph, Bind, Values,
	// Service, Minus, Exists in filters, or subqueries.
	Beyond bool
}

// Name renders the paper's row labels: "none", "And", "Filter",
// "And, Filter", …, with "2RPQ" for property paths.
func (s OperatorSet) Name() string {
	if s.Beyond {
		return "beyond"
	}
	parts := []string{}
	if s.And {
		parts = append(parts, "And")
	}
	if s.Filter {
		parts = append(parts, "Filter")
	}
	if s.Path {
		parts = append(parts, "2RPQ")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// Operators computes the operator set of the query's pattern.
func (q *Query) Operators() OperatorSet {
	var s OperatorSet
	q.Walk(func(p *Pattern) {
		switch p.Kind {
		case PGroup:
			if countJoinOperands(p) >= 2 {
				s.And = true
			}
		case PFilter:
			s.Filter = true
			if p.Expr != nil && p.Expr.containsExists() {
				s.Beyond = true
			}
		case PPath:
			s.Path = true
		case PTriple:
		case PBind, PValues, PService, PGraph, PMinus, PSubquery, PUnion, POptional:
			s.Beyond = true
		}
	})
	return s
}

// IsCQ reports whether the query's pattern uses only And (the CQ rows of
// Table 4: operator sets "none" and "And").
func (q *Query) IsCQ() bool {
	s := q.Operators()
	return !s.Beyond && !s.Filter && !s.Path
}

// IsCQF reports whether the pattern uses only And and Filter (CQ+F).
func (q *Query) IsCQF() bool {
	s := q.Operators()
	return !s.Beyond && !s.Path
}

// IsC2RPQF reports whether the pattern uses only And, Filter and property
// paths (C2RPQ+F, Table 5).
func (q *Query) IsC2RPQF() bool {
	return !q.Operators().Beyond
}
