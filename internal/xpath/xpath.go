// Package xpath implements the XPath fragment needed for the query studies
// of Section 5 of "Towards Theory for Real-World Data": a parser for
// navigational XPath (all 13 axes, node tests, predicates, unions, value
// comparisons and a few core functions), structural metrics (syntax-tree
// size — Baelde et al. observed a power law with a majority of queries of
// size ≤ 13), axis-usage analysis, and classification into the fragments
// the studies measure: positive XPath, Core XPath 1.0, downward XPath, and
// tree patterns (twig queries; over 90% of Pasqua's corpus).
package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

// Axis is an XPath navigation axis.
type Axis int

// The thirteen XPath axes (Section 5 lists them; the most popular in the
// Baelde et al. corpus were child 31.1%, attribute 17.1%,
// descendant(-or-self) 3.6%, ancestor(-or-self) 3.6%).
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisAttribute
	AxisFollowing
	AxisFollowingSibling
	AxisPreceding
	AxisPrecedingSibling
	AxisSelf
	AxisNamespace
)

var axisNames = map[Axis]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisParent:           "parent",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
	AxisAttribute:        "attribute",
	AxisFollowing:        "following",
	AxisFollowingSibling: "following-sibling",
	AxisPreceding:        "preceding",
	AxisPrecedingSibling: "preceding-sibling",
	AxisSelf:             "self",
	AxisNamespace:        "namespace",
}

var axisByName = func() map[string]Axis {
	m := map[string]Axis{}
	for a, n := range axisNames {
		m[n] = a
	}
	return m
}()

func (a Axis) String() string { return axisNames[a] }

// Downward reports whether the axis only moves down the tree (or stays).
// Attribute steps count as downward: attributes hang below their element
// (cf. the modeling remark in Example 3.1).
func (a Axis) Downward() bool {
	switch a {
	case AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisSelf, AxisAttribute:
		return true
	}
	return false
}

// Expr is an XPath expression: a union of paths.
type Expr struct {
	Paths []*Path
}

// Path is a location path.
type Path struct {
	Absolute bool // leading '/'
	Steps    []*Step
}

// Step is one location step: axis, node test, and predicates.
type Step struct {
	Axis Axis
	// Test is the node test: a name, "*", "node()" or "text()".
	Test       string
	Predicates []*Pred
}

// PredKind discriminates predicate expressions.
type PredKind int

// Predicate expression kinds.
const (
	PredPath    PredKind = iota // existence of a path
	PredAnd                     // conjunction
	PredOr                      // disjunction
	PredNot                     // negation
	PredCompare                 // value comparison left op right
	PredNumber                  // positional predicate [3]
	PredLiteral                 // string literal (inside comparisons)
	PredFunc                    // function call
)

// Pred is a predicate expression node.
type Pred struct {
	Kind     PredKind
	Subs     []*Pred
	PathVal  *Path
	Op       string // for PredCompare
	Number   float64
	Literal  string
	FuncName string
}

// ---------------------------------------------------------------------------
// Structural metrics and fragment classification
// ---------------------------------------------------------------------------

// Size counts the nodes of the syntax tree (paths, steps and predicate
// nodes) — the measure behind Baelde et al.'s power-law observation.
func (e *Expr) Size() int {
	n := 0
	for _, p := range e.Paths {
		n += p.size()
	}
	if len(e.Paths) > 1 {
		n += len(e.Paths) - 1 // union nodes
	}
	return n
}

func (p *Path) size() int {
	n := 1
	for _, s := range p.Steps {
		n++
		for _, pr := range s.Predicates {
			n += pr.size()
		}
	}
	return n
}

func (pr *Pred) size() int {
	n := 1
	for _, s := range pr.Subs {
		n += s.size()
	}
	if pr.PathVal != nil {
		n += pr.PathVal.size()
	}
	return n
}

// Axes returns the multiset of axes used in the expression.
func (e *Expr) Axes() map[Axis]int {
	out := map[Axis]int{}
	e.walkPaths(func(p *Path) {
		for _, s := range p.Steps {
			out[s.Axis]++
		}
	})
	return out
}

func (e *Expr) walkPaths(f func(*Path)) {
	var visitPred func(pr *Pred)
	var visitPath func(p *Path)
	visitPath = func(p *Path) {
		f(p)
		for _, s := range p.Steps {
			for _, pr := range s.Predicates {
				visitPred(pr)
			}
		}
	}
	visitPred = func(pr *Pred) {
		if pr.PathVal != nil {
			visitPath(pr.PathVal)
		}
		for _, s := range pr.Subs {
			visitPred(s)
		}
	}
	for _, p := range e.Paths {
		visitPath(p)
	}
}

// IsPositive reports membership in positive XPath: no negation anywhere
// (Baelde et al. measured ≈25–30% syntactic membership, ≈60% after
// rewriting; we classify syntactically).
func (e *Expr) IsPositive() bool {
	ok := true
	e.walkPreds(func(pr *Pred) {
		if pr.Kind == PredNot {
			ok = false
		}
		if pr.Kind == PredCompare && pr.Op == "!=" {
			ok = false
		}
	})
	return ok
}

func (e *Expr) walkPreds(f func(*Pred)) {
	var visitPred func(pr *Pred)
	visitPred = func(pr *Pred) {
		f(pr)
		for _, s := range pr.Subs {
			visitPred(s)
		}
		if pr.PathVal != nil {
			for _, st := range pr.PathVal.Steps {
				for _, p2 := range st.Predicates {
					visitPred(p2)
				}
			}
		}
	}
	for _, p := range e.Paths {
		for _, s := range p.Steps {
			for _, pr := range s.Predicates {
				visitPred(pr)
			}
		}
	}
}

// IsCoreXPath reports membership in Core XPath 1.0: purely navigational —
// all axes allowed, predicates are boolean combinations (and/or/not) of
// paths, but no data-value comparisons, positional predicates, literals or
// functions other than not().
func (e *Expr) IsCoreXPath() bool {
	ok := true
	e.walkPreds(func(pr *Pred) {
		switch pr.Kind {
		case PredPath, PredAnd, PredOr, PredNot:
		default:
			ok = false
		}
	})
	return ok
}

// IsDownward reports membership in downward XPath: only child,
// descendant(-or-self) and self axes.
func (e *Expr) IsDownward() bool {
	for a := range e.Axes() {
		if !a.Downward() {
			return false
		}
	}
	return true
}

// IsTreePattern reports whether the expression is a tree pattern (twig
// query, Section 5: over 90% of Pasqua's corpus): a single downward path
// whose predicates are conjunctions of tree patterns — no disjunction,
// negation, comparisons, or positional predicates.
func (e *Expr) IsTreePattern() bool {
	if len(e.Paths) != 1 {
		return false
	}
	if !e.IsDownward() {
		return false
	}
	ok := true
	e.walkPreds(func(pr *Pred) {
		switch pr.Kind {
		case PredPath, PredAnd:
		default:
			ok = false
		}
	})
	return ok
}

func (e *Expr) String() string {
	parts := make([]string, len(e.Paths))
	for i, p := range e.Paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, " | ")
}

func (p *Path) String() string {
	var b strings.Builder
	if p.Absolute {
		b.WriteByte('/')
	}
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%s::%s", s.Axis, s.Test)
		for _, pr := range s.Predicates {
			fmt.Fprintf(&b, "[%s]", pr)
		}
	}
	return b.String()
}

func (pr *Pred) String() string {
	switch pr.Kind {
	case PredPath:
		return pr.PathVal.String()
	case PredAnd:
		return "(" + pr.Subs[0].String() + " and " + pr.Subs[1].String() + ")"
	case PredOr:
		return "(" + pr.Subs[0].String() + " or " + pr.Subs[1].String() + ")"
	case PredNot:
		return "not(" + pr.Subs[0].String() + ")"
	case PredCompare:
		return pr.Subs[0].String() + pr.Op + pr.Subs[1].String()
	case PredNumber:
		return fmt.Sprintf("%g", pr.Number)
	case PredLiteral:
		return "'" + pr.Literal + "'"
	case PredFunc:
		var args []string
		for _, s := range pr.Subs {
			args = append(args, s.String())
		}
		return pr.FuncName + "(" + strings.Join(args, ",") + ")"
	}
	return "?"
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == ':'
}
