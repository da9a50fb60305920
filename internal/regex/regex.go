// Package regex implements the regular expressions of Section 2 of
// "Towards Theory for Real-World Data" (Martens, PODS 2022): expressions over
// a countably infinite label set Lab built from ∅, ε, labels, concatenation,
// union, Kleene star, optionality (?), and plus (+).
//
// The abstract syntax is preserved faithfully: no silent simplification is
// performed, because several notions studied in the paper — determinism
// (one-unambiguity), parse depth, k-occurrence — are properties of the
// *syntax*, not of the language.
package regex

import (
	"fmt"
	"slices"
	"sort"
)

// Kind identifies the top-level operator of an expression.
type Kind int

// Expression kinds. Concat and Union are n-ary (≥ 2 children); Star, Plus and
// Opt are unary.
const (
	Empty   Kind = iota // ∅, the empty language
	Epsilon             // ε, the language {ε}
	Symbol              // a single label a ∈ Lab
	Concat              // e1 · e2 · … · en
	Union               // e1 + e2 + … + en
	Star                // e*
	Plus                // e+
	Opt                 // e?
)

func (k Kind) String() string {
	switch k {
	case Empty:
		return "Empty"
	case Epsilon:
		return "Epsilon"
	case Symbol:
		return "Symbol"
	case Concat:
		return "Concat"
	case Union:
		return "Union"
	case Star:
		return "Star"
	case Plus:
		return "Plus"
	case Opt:
		return "Opt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Expr is a node of a regular-expression syntax tree.
//
// Invariants: Sym is non-empty iff Kind == Symbol; Subs has ≥ 2 elements for
// Concat/Union, exactly 1 for Star/Plus/Opt, and is nil otherwise.
type Expr struct {
	Kind Kind
	Sym  string
	Subs []*Expr
}

// Constructors. NewConcat and NewUnion flatten nested nodes of the same kind
// (associativity is syntactically irrelevant for every analysis in the paper)
// but perform no other rewriting.

// NewEmpty returns ∅.
func NewEmpty() *Expr { return &Expr{Kind: Empty} }

// NewEpsilon returns ε.
func NewEpsilon() *Expr { return &Expr{Kind: Epsilon} }

// NewSymbol returns the expression consisting of the single label a.
func NewSymbol(a string) *Expr {
	if a == "" {
		panic("regex: empty symbol")
	}
	return &Expr{Kind: Symbol, Sym: a}
}

// NewConcat returns the concatenation of es, flattening nested concatenations.
// With zero arguments it returns ε; with one, that argument.
func NewConcat(es ...*Expr) *Expr {
	flat := flatten(Concat, es)
	switch len(flat) {
	case 0:
		return NewEpsilon()
	case 1:
		return flat[0]
	}
	return &Expr{Kind: Concat, Subs: flat}
}

// NewUnion returns the union of es, flattening nested unions. With zero
// arguments it returns ∅; with one, that argument.
func NewUnion(es ...*Expr) *Expr {
	flat := flatten(Union, es)
	switch len(flat) {
	case 0:
		return NewEmpty()
	case 1:
		return flat[0]
	}
	return &Expr{Kind: Union, Subs: flat}
}

// NewStar returns e*.
func NewStar(e *Expr) *Expr { return &Expr{Kind: Star, Subs: []*Expr{e}} }

// NewPlus returns e+.
func NewPlus(e *Expr) *Expr { return &Expr{Kind: Plus, Subs: []*Expr{e}} }

// NewOpt returns e?.
func NewOpt(e *Expr) *Expr { return &Expr{Kind: Opt, Subs: []*Expr{e}} }

func flatten(k Kind, es []*Expr) []*Expr {
	out := make([]*Expr, 0, len(es))
	for _, e := range es {
		if e == nil {
			panic("regex: nil subexpression")
		}
		if e.Kind == k {
			out = append(out, e.Subs...)
		} else {
			out = append(out, e)
		}
	}
	return out
}

// Sub returns the single child of a unary node and panics otherwise.
func (e *Expr) Sub() *Expr {
	if len(e.Subs) != 1 {
		panic("regex: Sub on non-unary expression")
	}
	return e.Subs[0]
}

// Clone returns a deep copy of e.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := &Expr{Kind: e.Kind, Sym: e.Sym}
	if e.Subs != nil {
		c.Subs = make([]*Expr, len(e.Subs))
		for i, s := range e.Subs {
			c.Subs[i] = s.Clone()
		}
	}
	return c
}

// Equal reports whether e and f are syntactically identical.
func (e *Expr) Equal(f *Expr) bool {
	if e == nil || f == nil {
		return e == f
	}
	if e.Kind != f.Kind || e.Sym != f.Sym || len(e.Subs) != len(f.Subs) {
		return false
	}
	for i := range e.Subs {
		if !e.Subs[i].Equal(f.Subs[i]) {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the syntax tree.
func (e *Expr) Size() int {
	n := 1
	for _, s := range e.Subs {
		n += s.Size()
	}
	return n
}

// ParseDepth returns the nesting depth of the syntax tree, with atoms (∅, ε,
// symbols) at depth 1. Choi's study (Section 4.2.1 of the paper) measured
// parse depths of 1–9 for regular expressions occurring in real DTDs.
func (e *Expr) ParseDepth() int {
	d := 0
	for _, s := range e.Subs {
		if sd := s.ParseDepth(); sd > d {
			d = sd
		}
	}
	return d + 1
}

// Alphabet returns the sorted set of labels occurring in e.
func (e *Expr) Alphabet() []string {
	occ := e.Occurrences()
	out := make([]string, 0, len(occ))
	for a := range occ {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Occurrences maps each label to the number of times it occurs in e. The
// maximum over all labels is the k for which e is a k-ORE (Section 4.2.3).
func (e *Expr) Occurrences() map[string]int {
	occ := map[string]int{}
	e.walk(func(x *Expr) {
		if x.Kind == Symbol {
			occ[x.Sym]++
		}
	})
	return occ
}

// MaxOccurrences returns the largest number of times any single label occurs
// in e (0 for expressions without symbols).
func (e *Expr) MaxOccurrences() int {
	max := 0
	for _, n := range e.Occurrences() {
		if n > max {
			max = n
		}
	}
	return max
}

func (e *Expr) walk(f func(*Expr)) {
	f(e)
	for _, s := range e.Subs {
		s.walk(f)
	}
}

// Walk calls f on e and on every descendant, in preorder.
func (e *Expr) Walk(f func(*Expr)) { e.walk(f) }

// Nullable reports whether ε ∈ L(e).
func (e *Expr) Nullable() bool {
	switch e.Kind {
	case Empty, Symbol:
		return false
	case Epsilon, Star, Opt:
		return true
	case Plus:
		return e.Sub().Nullable()
	case Concat:
		for _, s := range e.Subs {
			if !s.Nullable() {
				return false
			}
		}
		return true
	case Union:
		for _, s := range e.Subs {
			if s.Nullable() {
				return true
			}
		}
		return false
	}
	panic("regex: unknown kind")
}

// IsEmptyLanguage reports whether L(e) = ∅.
func (e *Expr) IsEmptyLanguage() bool { return e.restrict(nil, nil) }

// Restrict reads every symbol of e that keep rejects as ∅, which gives
// L(e) ∩ R* for the set R of labels keep accepts, and reports on that
// language in one O(|e|) pass: empty says whether it is ∅, and useful
// lists, sorted and distinct, the labels of its useful positions — the
// symbol occurrences some word of it uses. A position is useful iff no
// node on its path from the root has an empty language under that
// reading, so useful is also the set of labels occurring in a word of
// L(e) ∩ R*.
func (e *Expr) Restrict(keep func(label string) bool) (useful []string, empty bool) {
	empty = e.restrict(keep, &useful)
	slices.Sort(useful)
	return slices.Compact(useful), empty
}

// restrict reports whether e is empty with the symbols keep rejects
// read as ∅ (a nil keep rejects none). Unless syms is nil it appends
// the labels of e's positions that no empty node on their path up to e
// cuts off: each node takes back what its children appended once it
// turns out empty.
func (e *Expr) restrict(keep func(string) bool, syms *[]string) (empty bool) {
	start := 0
	if syms != nil {
		start = len(*syms)
	}
	switch e.Kind {
	case Empty:
		empty = true
	case Epsilon:
	case Symbol:
		empty = keep != nil && !keep(e.Sym)
		if !empty && syms != nil {
			*syms = append(*syms, e.Sym)
		}
	case Star, Opt:
		e.Sub().restrict(keep, syms)
	case Plus:
		empty = e.Sub().restrict(keep, syms)
	case Concat:
		for _, s := range e.Subs {
			if s.restrict(keep, syms) {
				empty = true
				break
			}
		}
	case Union:
		// Every branch may hold useful positions, so a collecting
		// visit cannot stop at the first non-empty one.
		empty = true
		for _, s := range e.Subs {
			if !s.restrict(keep, syms) {
				empty = false
				if syms == nil {
					break
				}
			}
		}
	default:
		panic("regex: unknown kind")
	}
	if empty && syms != nil {
		*syms = (*syms)[:start]
	}
	return empty
}

// String renders e with minimal parentheses using '+' for union (the paper's
// notation), juxtaposition with spaces for concatenation, and postfix
// * / + / ? for iteration. ∅ renders as "<empty>" and ε as "<eps>".
// Multi-character labels render as-is; the output is re-parseable by Parse.
func (e *Expr) String() string {
	var buf [64]byte
	return string(e.appendTo(buf[:0], 0))
}

// precedence levels: union < concat < unary.
func (e *Expr) appendTo(b []byte, prec int) []byte {
	switch e.Kind {
	case Empty:
		b = append(b, "<empty>"...)
	case Epsilon:
		b = append(b, "<eps>"...)
	case Symbol:
		b = append(b, e.Sym...)
	case Union:
		if prec > 0 {
			b = append(b, '(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b = append(b, " + "...)
			}
			b = s.appendTo(b, 1)
		}
		if prec > 0 {
			b = append(b, ')')
		}
	case Concat:
		if prec > 1 {
			b = append(b, '(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b = append(b, ' ')
			}
			b = s.appendTo(b, 2)
		}
		if prec > 1 {
			b = append(b, ')')
		}
	case Star, Plus, Opt:
		sub := e.Sub()
		needParen := sub.Kind == Concat || sub.Kind == Union ||
			sub.Kind == Star || sub.Kind == Plus || sub.Kind == Opt
		if needParen {
			b = append(b, '(')
			b = sub.appendTo(b, 0)
			b = append(b, ')')
		} else {
			b = sub.appendTo(b, 3)
		}
		switch e.Kind {
		case Star:
			b = append(b, '*')
		case Plus:
			b = append(b, '+')
		case Opt:
			b = append(b, '?')
		}
	}
	return b
}

// Simplify returns a language-equivalent expression with trivial identities
// applied: ∅ absorbed in unions and annihilating concatenations, ε removed
// from concatenations, (e?)? = e?, (e*)* = e*, ε + e = e?, and single-child
// collapses. Simplify never changes the language but may change syntactic
// properties; analyses that depend on syntax must run before simplification.
func (e *Expr) Simplify() *Expr {
	switch e.Kind {
	case Empty, Epsilon, Symbol:
		return e.Clone()
	case Concat:
		var subs []*Expr
		for _, s := range e.Subs {
			ss := s.Simplify()
			switch ss.Kind {
			case Empty:
				return NewEmpty()
			case Epsilon:
				continue
			}
			subs = append(subs, ss)
		}
		return NewConcat(subs...)
	case Union:
		var subs []*Expr
		hasEps := false
		for _, s := range e.Subs {
			ss := s.Simplify()
			switch ss.Kind {
			case Empty:
				continue
			case Epsilon:
				hasEps = true
				continue
			}
			subs = append(subs, ss)
		}
		u := NewUnion(subs...)
		if hasEps {
			if u.Kind == Empty {
				return NewEpsilon()
			}
			if u.Nullable() {
				return u
			}
			return NewOpt(u)
		}
		return u
	case Star:
		s := e.Sub().Simplify()
		switch s.Kind {
		case Empty, Epsilon:
			return NewEpsilon()
		case Star, Plus, Opt:
			return NewStar(s.Sub())
		}
		return NewStar(s)
	case Plus:
		s := e.Sub().Simplify()
		switch s.Kind {
		case Empty:
			return NewEmpty()
		case Epsilon:
			return NewEpsilon()
		case Star:
			return NewStar(s.Sub())
		case Plus:
			return s
		case Opt:
			return NewStar(s.Sub())
		}
		return NewPlus(s)
	case Opt:
		s := e.Sub().Simplify()
		switch s.Kind {
		case Empty, Epsilon:
			return NewEpsilon()
		case Star, Opt:
			return s
		case Plus:
			return NewStar(s.Sub())
		}
		if s.Nullable() {
			return s
		}
		return NewOpt(s)
	}
	panic("regex: unknown kind")
}
