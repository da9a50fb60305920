// Package sparqlalg implements SPARQL pattern semantics over RDF graphs
// (Section 9.1 of "Towards Theory for Real-World Data"): evaluation of
// And/Filter/Union/Optional patterns (Pérez, Arenas & Gutiérrez), the
// Evaluation decision problem, and the *well-designed pattern* test — the
// OPTIONAL restriction that brings Evaluation from PSPACE-complete down to
// coNP-complete and covers ≈98% of the And/Filter/Optional queries in the
// logs (Section 9.4).
package sparqlalg

import (
	"repro/internal/sparql"
)

// UsesOnlyAFO reports whether the query's pattern uses only And, Filter
// and Optional (plus triple and property-path patterns) — the fragment in
// which well-designedness is defined.
func UsesOnlyAFO(q *sparql.Query) bool {
	ok := true
	q.Walk(func(p *sparql.Pattern) {
		switch p.Kind {
		case sparql.PGroup, sparql.PTriple, sparql.PPath, sparql.PFilter, sparql.POptional:
		default:
			ok = false
		}
		if p.Kind == sparql.PFilter && p.Expr != nil {
			for _, sub := range flattenExpr(p.Expr) {
				if sub.Kind == sparql.EExists {
					ok = false
				}
			}
		}
	})
	return ok
}

func flattenExpr(e *sparql.Expr) []*sparql.Expr {
	out := []*sparql.Expr{e}
	for _, s := range e.Subs {
		out = append(out, flattenExpr(s)...)
	}
	return out
}

// IsWellDesigned implements Pérez et al.'s condition: for every subpattern
// P' = (P1 OPTIONAL P2), every variable of P2 that also occurs outside P'
// must occur in P1. The group syntax is folded into the binary algebra
// left-to-right: { A B OPTIONAL{C} D } reads as (((A AND B) OPT C) AND D).
// It returns false when the query is outside the And/Filter/Optional
// fragment.
func IsWellDesigned(q *sparql.Query) bool {
	if !UsesOnlyAFO(q) {
		return false
	}
	if q.Where == nil {
		return true
	}
	root := toBinary(q.Where)
	if root == nil {
		return true
	}
	all := root.vars()
	return checkWD(root, all, nil)
}

// binNode is the binary And/Opt algebra with triple/filter leaves.
type binNode struct {
	op          string // "leaf", "and", "opt"
	left, right *binNode
	leafVars    map[string]bool
}

func (b *binNode) vars() map[string]bool {
	if b == nil {
		return map[string]bool{}
	}
	if b.op == "leaf" {
		out := map[string]bool{}
		for v := range b.leafVars {
			out[v] = true
		}
		return out
	}
	out := b.left.vars()
	for v := range b.right.vars() {
		out[v] = true
	}
	return out
}

func toBinary(p *sparql.Pattern) *binNode {
	switch p.Kind {
	case sparql.PTriple, sparql.PPath:
		vars := map[string]bool{}
		for _, t := range []sparql.Term{p.S, p.P, p.O} {
			if t.IsVarLike() && t.Value != "" {
				vars[t.Value] = true
			}
		}
		return &binNode{op: "leaf", leafVars: vars}
	case sparql.PFilter:
		vars := map[string]bool{}
		if p.Expr != nil {
			for _, v := range p.Expr.Vars() {
				vars[v] = true
			}
		}
		return &binNode{op: "leaf", leafVars: vars}
	case sparql.POptional:
		// handled by the parent group; standalone OPTIONAL = ε OPT P
		inner := toBinary(p.Subs[0])
		return &binNode{op: "opt", left: &binNode{op: "leaf", leafVars: map[string]bool{}}, right: inner}
	case sparql.PGroup:
		var acc *binNode
		for _, c := range p.Subs {
			if c.Kind == sparql.POptional {
				inner := toBinary(c.Subs[0])
				if acc == nil {
					acc = &binNode{op: "leaf", leafVars: map[string]bool{}}
				}
				acc = &binNode{op: "opt", left: acc, right: inner}
				continue
			}
			n := toBinary(c)
			if n == nil {
				continue
			}
			if acc == nil {
				acc = n
			} else {
				acc = &binNode{op: "and", left: acc, right: n}
			}
		}
		return acc
	}
	return nil
}

// checkWD verifies the condition on every OPT node. outside accumulates
// the variables occurring in the pattern outside the current subtree.
func checkWD(n *binNode, all map[string]bool, path []*binNode) bool {
	if n == nil || n.op == "leaf" {
		return true
	}
	if n.op == "opt" {
		// vars outside this OPT subtree: all minus the subtree, plus any
		// variable that also occurs elsewhere (a variable can be both
		// inside and outside; compute occurrences structurally).
		outside := varsOutside(all, n, path)
		p1 := n.left.vars()
		for v := range n.right.vars() {
			if outside[v] && !p1[v] {
				return false
			}
		}
	}
	return checkWD(n.left, all, append(path, n)) &&
		checkWD(n.right, all, append(path, n))
}

// varsOutside computes the variables occurring outside the subtree n,
// using the path of ancestors: for each ancestor, the sibling subtree's
// variables are outside.
func varsOutside(all map[string]bool, n *binNode, path []*binNode) map[string]bool {
	outside := map[string]bool{}
	cur := n
	for i := len(path) - 1; i >= 0; i-- {
		anc := path[i]
		var sibling *binNode
		if anc.left == cur {
			sibling = anc.right
		} else {
			sibling = anc.left
		}
		for v := range sibling.vars() {
			outside[v] = true
		}
		cur = anc
	}
	return outside
}

// IsUnionOfWellDesigned reports whether the query is a union of
// well-designed And/Filter/Optional patterns — UNION allowed only at the
// top level of the pattern, every branch well-designed. Picalausa &
// Vansummeren found roughly 50% of the Optional-using DBpedia queries in
// this class (Section 9.1).
func IsUnionOfWellDesigned(q *sparql.Query) bool {
	if q.Where == nil {
		return true
	}
	branches, ok := topLevelUnionBranches(q.Where)
	if !ok {
		return false
	}
	for _, b := range branches {
		sub := &sparql.Query{Type: q.Type, Where: b}
		if !UsesOnlyAFO(sub) || !IsWellDesigned(sub) {
			return false
		}
	}
	return true
}

// topLevelUnionBranches splits the pattern into UNION branches when UNION
// occurs only at the top level; ok=false when UNION occurs deeper.
func topLevelUnionBranches(p *sparql.Pattern) ([]*sparql.Pattern, bool) {
	switch p.Kind {
	case sparql.PUnion:
		l, okL := topLevelUnionBranches(p.Subs[0])
		r, okR := topLevelUnionBranches(p.Subs[1])
		return append(l, r...), okL && okR
	case sparql.PGroup:
		if len(p.Subs) == 1 {
			return topLevelUnionBranches(p.Subs[0])
		}
	}
	// no top-level union: the whole pattern is one branch, which must not
	// contain UNION anywhere inside
	hasUnion := false
	walkAll(p, func(x *sparql.Pattern) {
		if x.Kind == sparql.PUnion {
			hasUnion = true
		}
	})
	if hasUnion {
		return nil, false
	}
	return []*sparql.Pattern{p}, true
}

func walkAll(p *sparql.Pattern, f func(*sparql.Pattern)) {
	f(p)
	for _, s := range p.Subs {
		walkAll(s, f)
	}
}

// IsWellBehaved approximates the "even stronger condition" of Picalausa &
// Vansummeren that makes Evaluation tractable (Section 9.1 reports 83.8%
// (75.7%) of all patterns well-behaved). The published condition is
// union-of-well-designed plus restrictions on how projection interacts
// with optional variables; since the analyzer works at pattern level
// (patterns have no projection, cf. the paper's footnote on Evaluation),
// the implemented condition coincides with union-of-well-designed.
func IsWellBehaved(q *sparql.Query) bool {
	return IsUnionOfWellDesigned(q)
}
