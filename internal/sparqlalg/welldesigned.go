// Package sparqlalg implements SPARQL pattern semantics over RDF graphs
// (Section 9.1 of "Towards Theory for Real-World Data"): evaluation of
// And/Filter/Union/Optional patterns (Pérez, Arenas & Gutiérrez), the
// Evaluation decision problem, and the *well-designed pattern* test — the
// OPTIONAL restriction that brings Evaluation from PSPACE-complete down to
// coNP-complete and covers ≈98% of the And/Filter/Optional queries in the
// logs (Section 9.4).
package sparqlalg

import (
	"sync"

	"repro/internal/sparql"
)

// UsesOnlyAFO reports whether the query's pattern uses only And, Filter
// and Optional (plus triple and property-path patterns) — the fragment in
// which well-designedness is defined.
func UsesOnlyAFO(q *sparql.Query) bool {
	if q.Where != nil && !afo(q.Where) {
		return false
	}
	for _, t := range q.Template {
		if !afo(t) {
			return false
		}
	}
	return true
}

// afo reports whether p is an And/Filter/Optional pattern without
// (NOT) EXISTS filters.
func afo(p *sparql.Pattern) bool {
	switch p.Kind {
	case sparql.PGroup, sparql.PTriple, sparql.PPath, sparql.POptional:
	case sparql.PFilter:
		if hasExists(p.Expr) {
			return false
		}
	default:
		return false
	}
	for _, s := range p.Subs {
		if !afo(s) {
			return false
		}
	}
	return true
}

func hasExists(e *sparql.Expr) bool {
	if e == nil {
		return false
	}
	if e.Kind == sparql.EExists {
		return true
	}
	for _, s := range e.Subs {
		if hasExists(s) {
			return true
		}
	}
	return false
}

// IsWellDesigned implements Pérez et al.'s condition: for every subpattern
// P' = (P1 OPTIONAL P2), every variable of P2 that also occurs outside P'
// must occur in P1. The group syntax is folded into the binary algebra
// left-to-right: { A B OPTIONAL{C} D } reads as (((A AND B) OPT C) AND D).
// It returns false when the query is outside the And/Filter/Optional
// fragment.
func IsWellDesigned(q *sparql.Query) bool {
	return UsesOnlyAFO(q) && (q.Where == nil || wellDesigned(q.Where))
}

// wellDesigned checks the condition on an And/Filter/Optional pattern.
// Each node of the binary algebra gets the set of variables under it
// once, as a bitset over the pattern's variables.
func wellDesigned(p *sparql.Pattern) bool {
	a := algebras.Get().(*algebra)
	defer a.release()
	root := a.toBinary(p)
	if root < 0 {
		return true
	}
	a.w = (len(a.ids) + 63) / 64
	// one set per node, the empty set, and one scratch set per level of
	// check's recursion, which is at most one per node
	size := a.w * (2*len(a.nodes) + 1)
	if cap(a.bits) < size {
		a.bits = make([]uint64, size)
	}
	bits := a.bits[:size]
	clear(bits)
	a.empty, bits = bits[:a.w], bits[a.w:]
	for i := range a.nodes {
		n := &a.nodes[i]
		n.vars, bits = bits[:a.w], bits[a.w:]
		if n.op == leaf {
			for _, id := range a.leafVars[n.lo:n.hi] {
				n.vars[id/64] |= 1 << (id % 64)
			}
			continue
		}
		left, right := a.vars(n.left), a.vars(n.right)
		for j := range n.vars {
			n.vars[j] = left[j] | right[j]
		}
	}
	return a.check(root, a.empty, bits)
}

type nodeOp uint8

const (
	leaf nodeOp = iota // a triple, path or filter
	and
	opt
)

// algebra is the binary And/Opt algebra of one pattern, with triple and
// filter leaves. Nodes are stored in post-order, children before their
// parent, and refer to each other by index; -1 is no node.
type algebra struct {
	ids      map[string]int // variable → bit
	leafVars []int          // the variable bits of each leaf, leaf by leaf
	nodes    []binNode
	w        int      // words per variable set
	bits     []uint64 // the sets' storage
	empty    []uint64 // the empty set
}

// algebras pools the scratch of wellDesigned, so that a query's check
// allocates nothing once the pool is warm.
var algebras = sync.Pool{New: func() any { return &algebra{ids: map[string]int{}} }}

// release empties a and returns it to the pool, unless a large pattern
// grew its nodes or sets past maxPooled elements.
func (a *algebra) release() {
	if cap(a.nodes) > maxPooled || cap(a.bits) > maxPooled {
		return
	}
	clear(a.ids)
	a.leafVars, a.nodes = a.leafVars[:0], a.nodes[:0]
	algebras.Put(a)
}

const maxPooled = 1 << 14

type binNode struct {
	op          nodeOp
	left, right int
	lo, hi      int      // a leaf's variables are leafVars[lo:hi]
	vars        []uint64 // the variables under the node
}

func (a *algebra) add(n binNode) int {
	a.nodes = append(a.nodes, n)
	return len(a.nodes) - 1
}

// addLeaf adds a leaf over the variables added to leafVars since lo.
func (a *algebra) addLeaf(lo int) int {
	return a.add(binNode{op: leaf, left: -1, right: -1, lo: lo, hi: len(a.leafVars)})
}

func (a *algebra) addVar(name string) {
	id, ok := a.ids[name]
	if !ok {
		id = len(a.ids)
		a.ids[name] = id
	}
	a.leafVars = append(a.leafVars, id)
}

// addExprVars adds the variables of e, except those inside EXISTS
// patterns, which scope separately.
func (a *algebra) addExprVars(e *sparql.Expr) {
	if e == nil {
		return
	}
	if e.Kind == sparql.EVar {
		a.addVar(e.Var)
	}
	if e.Kind == sparql.EExists {
		return
	}
	for _, s := range e.Subs {
		a.addExprVars(s)
	}
}

func (a *algebra) vars(n int) []uint64 {
	if n < 0 {
		return a.empty
	}
	return a.nodes[n].vars
}

func (a *algebra) toBinary(p *sparql.Pattern) int {
	switch p.Kind {
	case sparql.PTriple, sparql.PPath:
		lo := len(a.leafVars)
		for _, t := range [...]sparql.Term{p.S, p.P, p.O} {
			if t.IsVarLike() && t.Value != "" {
				a.addVar(t.Value)
			}
		}
		return a.addLeaf(lo)
	case sparql.PFilter:
		lo := len(a.leafVars)
		a.addExprVars(p.Expr)
		return a.addLeaf(lo)
	case sparql.POptional:
		// handled by the parent group; standalone OPTIONAL = ε OPT P
		inner := a.toBinary(p.Subs[0])
		return a.add(binNode{op: opt, left: a.addLeaf(len(a.leafVars)), right: inner})
	case sparql.PGroup:
		acc := -1
		for _, c := range p.Subs {
			if c.Kind == sparql.POptional {
				inner := a.toBinary(c.Subs[0])
				if acc < 0 {
					acc = a.addLeaf(len(a.leafVars))
				}
				acc = a.add(binNode{op: opt, left: acc, right: inner})
				continue
			}
			n := a.toBinary(c)
			if n < 0 {
				continue
			}
			if acc < 0 {
				acc = n
			} else {
				acc = a.add(binNode{op: and, left: acc, right: n})
			}
		}
		return acc
	}
	return -1
}

// check verifies the condition on every OPT node under n. outside holds
// the variables occurring outside n's subtree: those of the siblings of
// n and of its ancestors. free is scratch for the sets of the levels
// below.
func (a *algebra) check(n int, outside, free []uint64) bool {
	if n < 0 || a.nodes[n].op == leaf {
		return true
	}
	nd := &a.nodes[n]
	left, right := a.vars(nd.left), a.vars(nd.right)
	if nd.op == opt {
		for i := range right {
			if right[i]&outside[i]&^left[i] != 0 {
				return false
			}
		}
	}
	o, free := free[:a.w], free[a.w:]
	for i := range o {
		o[i] = outside[i] | right[i]
	}
	if !a.check(nd.left, o, free) {
		return false
	}
	for i := range o {
		o[i] = outside[i] | left[i]
	}
	return a.check(nd.right, o, free)
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
		if !afo(b) || !wellDesigned(b) {
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
	if hasUnion(p) {
		return nil, false
	}
	return []*sparql.Pattern{p}, true
}

func hasUnion(p *sparql.Pattern) bool {
	if p.Kind == sparql.PUnion {
		return true
	}
	for _, s := range p.Subs {
		if hasUnion(s) {
			return true
		}
	}
	return false
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
