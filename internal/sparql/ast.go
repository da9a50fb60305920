// Package sparql implements a parser and analysis AST for the SPARQL
// fragment studied in Section 9 of "Towards Theory for Real-World Data":
// queries (query-type, pattern, solution-modifier) where patterns are
// built from triple patterns, property-path patterns, And, Filter, Union,
// Optional, Graph, Bind, Values, Service, Minus, (Not) Exists and
// subqueries, and solution modifiers cover Distinct/Reduced, Order By,
// Group By, Having, Limit, Offset and the aggregates.
//
// The parser is the entry point of the SHARQL-style analysis pipeline
// (internal/core): raw log strings go in, feature-flagged ASTs come out.
package sparql

import (
	"slices"
	"strings"

	"repro/internal/regex"
)

// QueryType is one of the four SPARQL query forms (Section 9).
type QueryType int

// Query forms.
const (
	Select QueryType = iota
	Ask
	Construct
	Describe
)

func (t QueryType) String() string {
	switch t {
	case Select:
		return "SELECT"
	case Ask:
		return "ASK"
	case Construct:
		return "CONSTRUCT"
	case Describe:
		return "DESCRIBE"
	}
	return "?"
}

// TermKind discriminates RDF terms in triple patterns.
type TermKind int

// Term kinds: variables (?x), IRIs (prefixed or absolute), literals,
// and blank nodes (treated as variables in the hypergraph analyses,
// Section 9.5).
const (
	TermVar TermKind = iota
	TermIRI
	TermLiteral
	TermBlank
)

// Term is an RDF term occurrence.
type Term struct {
	Kind  TermKind
	Value string
}

// IsVarLike reports whether the term acts as a variable in the canonical
// hypergraph (variables and blank nodes).
func (t Term) IsVarLike() bool { return t.Kind == TermVar || t.Kind == TermBlank }

func (t Term) String() string {
	var b strings.Builder
	writeTerm(&b, t, nil)
	return b.String()
}

// PatternKind discriminates pattern nodes.
type PatternKind int

// Pattern node kinds, mirroring the grammar in Section 9:
// P ::= t | pp | Q | P And P | P Filter R | P Union P | P Optional P |
// Bind | Service | Values | Graph | Minus.
const (
	PGroup PatternKind = iota // conjunction (And) of children
	PTriple
	PPath // property-path pattern
	PFilter
	PUnion
	POptional
	PGraph
	PBind
	PValues
	PService
	PMinus
	PSubquery
)

// Pattern is a node of a SPARQL pattern tree.
type Pattern struct {
	Kind PatternKind
	// Children: PGroup has any number; PUnion exactly 2; POptional,
	// PGraph, PService, PMinus exactly 1.
	Subs []*Pattern
	// Triple fields (PTriple, PPath). For PPath, Path holds the property
	// path's 2RPQ expression (see ParsePath).
	S, P, O Term
	Path    *regex.Expr
	// Filter (PFilter) and Bind (PBind) expressions.
	Expr *Expr
	// Bind target variable (PBind).
	BindVar string
	// Graph/Service name (PGraph, PService).
	Name Term
	// Values (PValues): bound variables, number of rows, and the row data
	// (one entry per row per variable; empty string encodes UNDEF).
	ValuesVars []string
	ValuesRows int
	ValuesData [][]string
	// Subquery (PSubquery).
	Query *Query
	// Service SILENT flag.
	Silent bool
}

// ExprKind discriminates filter/bind expression nodes.
type ExprKind int

// Expression node kinds.
const (
	EVar ExprKind = iota
	EConst
	ECompare // =, !=, <, >, <=, >=
	EBool    // && or ||
	ENot     // !
	EArith   // + - * /
	EFunc    // function call or aggregate
	EExists  // EXISTS { P } or NOT EXISTS { P }
	EIn      // ?x IN (…)
)

// Expr is a filter/bind/select expression node.
type Expr struct {
	Kind    ExprKind
	Var     string
	Const   string
	Op      string
	Subs    []*Expr
	Func    string // upper-cased function or aggregate name
	Pattern *Pattern
	Negated bool // NOT EXISTS / NOT IN
}

// Vars returns the distinct variables of the expression, excluding those
// inside EXISTS patterns (which scope separately).
func (e *Expr) Vars() []string {
	set := map[string]bool{}
	var visit func(x *Expr)
	visit = func(x *Expr) {
		if x == nil {
			return
		}
		if x.Kind == EVar {
			set[x.Var] = true
		}
		if x.Kind == EExists {
			return
		}
		for _, s := range x.Subs {
			visit(s)
		}
	}
	visit(e)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// IsSafeFilter reports whether the filter is "safe" in the Section 9.5
// sense: a unary condition on one variable, or an equality ?x = ?y.
func (e *Expr) IsSafeFilter() bool {
	vars := e.Vars()
	if len(vars) <= 1 {
		return !e.containsExists()
	}
	if len(vars) == 2 && e.Kind == ECompare && e.Op == "=" &&
		e.Subs[0].Kind == EVar && e.Subs[1].Kind == EVar {
		return true
	}
	return false
}

// IsSimpleFilter reports whether the filter is "simple": unary or binary
// (at most two variables), Section 9.5.
func (e *Expr) IsSimpleFilter() bool {
	return len(e.Vars()) <= 2 && !e.containsExists()
}

func (e *Expr) containsExists() bool {
	if e == nil {
		return false
	}
	if e.Kind == EExists {
		return true
	}
	for _, s := range e.Subs {
		if s.containsExists() {
			return true
		}
	}
	return false
}

// SelectItem is one projection of a SELECT clause: a plain variable or an
// (expression AS ?var) binding.
type SelectItem struct {
	Var  string
	Expr *Expr // nil for plain variables
}

// Query is a parsed SPARQL query.
type Query struct {
	Type     QueryType
	Prefixes map[string]string

	// SELECT
	Distinct, Reduced bool
	Star              bool
	Items             []SelectItem
	// DESCRIBE targets (variables or IRIs); the overwhelming majority of
	// real DESCRIBE queries has no pattern at all (Section 9.3).
	DescribeTerms []Term

	// CONSTRUCT template (triples).
	Template []*Pattern

	// WHERE pattern; may be nil for DESCRIBE.
	Where *Pattern

	// solution modifiers
	GroupBy []string
	Having  []*Expr
	OrderBy int // number of ORDER BY conditions
	Limit   int // -1 when absent
	Offset  int // -1 when absent

	size int // length of the parsed text; Canonical's capacity hint
}

// Walk visits every pattern node of the query (including subqueries and
// EXISTS patterns).
func (q *Query) Walk(f func(*Pattern)) {
	if q.Where != nil {
		walkPattern(q.Where, f)
	}
	for _, t := range q.Template {
		walkPattern(t, f)
	}
}

func walkPattern(p *Pattern, f func(*Pattern)) {
	f(p)
	for _, s := range p.Subs {
		walkPattern(s, f)
	}
	if p.Expr != nil {
		walkExprPatterns(p.Expr, f)
	}
	if p.Query != nil {
		p.Query.Walk(f)
	}
}

func walkExprPatterns(e *Expr, f func(*Pattern)) {
	if e == nil {
		return
	}
	if e.Kind == EExists && e.Pattern != nil {
		walkPattern(e.Pattern, f)
	}
	for _, s := range e.Subs {
		walkExprPatterns(s, f)
	}
}

// Canonical returns a normalized string for duplicate elimination (the
// Valid → Unique step of Table 2): whitespace-insensitive rendering of the
// parsed query. Two queries with the same Canonical string are considered
// duplicates, matching the studies' dedup-after-parse approach.
func (q *Query) Canonical() string {
	var b strings.Builder
	b.Grow(q.size + 32)
	writeCanonical(q, &b)
	return b.String()
}
