package determinism

import (
	"repro/internal/automata"
	"repro/internal/regex"
)

// Descriptional-complexity experiments for Section 4.2.1: the paper
// recalls that the translation chain RE → DFA → deterministic RE has
// unavoidable exponential blow-ups at both steps (Losemann, Martens &
// Niewerth), and that the existence of a double-exponential blow-up for
// direct RE determinization is open.

// ExponentialFamily returns the classical witness of the first blow-up:
// eₙ = (a + b)* a (a + b)ⁿ (the "n-th letter from the end is a" language),
// whose minimal DFA needs at least 2ⁿ⁺¹ states while |eₙ| = O(n).
func ExponentialFamily(n int) *regex.Expr {
	ab := func() *regex.Expr {
		return regex.NewUnion(regex.NewSymbol("a"), regex.NewSymbol("b"))
	}
	parts := []*regex.Expr{regex.NewStar(ab()), regex.NewSymbol("a")}
	for i := 0; i < n; i++ {
		parts = append(parts, ab())
	}
	return regex.NewConcat(parts...)
}

// MeasureFamily returns (expression size, minimal DFA size) for eₙ,
// demonstrating the exponential gap empirically.
func MeasureFamily(n int) (exprSize, dfaStates int) {
	e := ExponentialFamily(n)
	return e.Size(), automata.ToDFA(e).NumStates()
}
