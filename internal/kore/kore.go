// Package kore implements k-occurrence regular expressions (k-OREs) from
// Section 4.2.3 of "Towards Theory for Real-World Data": expressions in
// which every alphabet symbol occurs at most k times. 1-OREs are the
// single-occurrence regular expressions (SOREs) that make up over 99% of the
// expressions found in real DTDs and XSDs (Bex et al.).
package kore

import (
	"context"
	"strconv"

	"repro/internal/automata"
	"repro/internal/obs"
	"repro/internal/regex"
)

// K returns the smallest k such that e is a k-ORE, i.e. the maximum number
// of occurrences of any single label. For expressions without labels the
// result is 0 (they are k-OREs for every k).
func K(e *regex.Expr) int { return e.MaxOccurrences() }

// IsKORE reports whether e is a k-ORE.
func IsKORE(e *regex.Expr, k int) bool { return e.MaxOccurrences() <= k }

// IsSORE reports whether e is a single-occurrence regular expression
// (a 1-ORE). Bex et al.'s statistic, cited in Section 4.2.3: over 99% of
// the regular expressions in DTDs and XSDs are SOREs.
func IsSORE(e *regex.Expr) bool { return e.MaxOccurrences() <= 1 }

// DFABound returns the bound |Σ|·2^k on the number of states of a DFA for a
// k-ORE over alphabet Σ (plus 2 for the initial state and sink), per the
// argument for Theorem 4.6(a). DeterminizeWithinBound verifies it.
func DFABound(sigma, k int) int {
	if k > 30 {
		k = 30 // avoid overflow; beyond this the bound is never checked
	}
	return sigma*(1<<uint(k)) + 2
}

// DeterminizeWithinBound builds the minimal DFA of e and reports its state
// count together with the theoretical bound for its occurrence number. The
// returned ok is true when the bound holds (it always should; the check
// exists for the empirical reproduction of Theorem 4.6(a)).
func DeterminizeWithinBound(e *regex.Expr) (states, bound int, ok bool) {
	d := automata.ToDFA(e)
	k := K(e)
	bound = DFABound(len(e.Alphabet()), k)
	return d.NumStates(), bound, d.NumStates() <= bound
}

// ContainmentCtx decides L(e1) ⊆ L(e2) for k-OREs. Per Theorem 4.6(a) this
// is polynomial time for every fixed k because each side converts to a DFA
// of at most |Σ|·2^k states. The implementation is the antichain engine
// (automata.ContainsCtx): it explores the product of e1's Glushkov
// automaton with the subset automaton of e2 lazily, so it materializes at
// most the subset-states of e2 that the |Σ|·2^k bound already counts.
// The bound still grows quickly with k, so servers run the check under a
// deadline and it cooperates with cancellation.
func ContainmentCtx(ctx context.Context, e1, e2 *regex.Expr) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "kore.contains")
	defer span.Finish()
	if span != nil {
		// The occurrence numbers determine the |Σ|·2^k DFA bound, so a
		// trace of a slow k-ORE check should show them.
		span.SetAttr("k_left", strconv.Itoa(K(e1)))
		span.SetAttr("k_right", strconv.Itoa(K(e2)))
	}
	return automata.ContainsCtx(ctx, e1, e2)
}
