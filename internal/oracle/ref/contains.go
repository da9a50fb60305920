// Package ref holds the reference engines the oracles check the
// production deciders against: Brzozowski derivatives, a memoized
// matcher, and a containment check built on derivatives alone. None of
// them shares code with the Glushkov visit of package automata, so a
// bug in that visit shows up as a disagreement. Only the oracles and
// tests import this package (TestPackageBoundary).
package ref

import (
	"slices"
	"strings"

	"repro/internal/regex"
)

// maxPairs bounds the pairs Contains explores. The antichain oracle's
// pairs need at most a few hundred; self-containment of the blowup
// family (a|b)* a (a|b)^10 needs 2,048.
const maxPairs = 1 << 13

// Contains reports whether L(e1) ⊆ L(e2). It searches breadth first
// over the pairs (∂w e1, ∂w e2) for words w over e1's alphabet, each
// side normalized. A pair whose left side is nullable and whose right
// side is not has w in L(e1) \ L(e2); a left side with an empty
// language has no such word ahead and is not expanded. Derivatives are
// finitely many up to associativity, commutativity and idempotence of
// union (Brzozowski, 1964), so the search ends, but it may take
// exponentially many pairs: past maxPairs it stops and reports
// decided == false.
func Contains(e1, e2 *regex.Expr) (contained, decided bool) {
	// A side is a normalized derivative and its text; the memo holds
	// the derivative of each side text by each label.
	type side struct {
		e    *regex.Expr
		text string
	}
	newSide := func(e *regex.Expr) side {
		e = normalize(e)
		return side{e, e.String()}
	}
	memo := map[[2]string]side{}
	derive := func(s side, a string) side {
		d, ok := memo[[2]string{s.text, a}]
		if !ok {
			d = newSide(Derivative(s.e, a))
			memo[[2]string{s.text, a}] = d
		}
		return d
	}
	type pair struct{ l, r side }
	alphabet := e1.Alphabet()
	start := pair{newSide(e1), newSide(e2)}
	seen := map[[2]string]bool{{start.l.text, start.r.text}: true}
	for queue := []pair{start}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		if p.l.e.Nullable() && !p.r.e.Nullable() {
			return false, true
		}
		if p.l.e.IsEmptyLanguage() {
			continue
		}
		for _, a := range alphabet {
			next := pair{derive(p.l, a), derive(p.r, a)}
			k := [2]string{next.l.text, next.r.text}
			if seen[k] {
				continue
			}
			if len(seen) == maxPairs {
				return false, false
			}
			seen[k] = true
			queue = append(queue, next)
		}
	}
	return true, true
}

// normalize rebuilds e bottom up with the same language: union
// alternatives flattened, sorted by their text and deduplicated, ε
// factors dropped from concatenations, and ∅ dropped from unions and
// absorbing concatenations.
func normalize(e *regex.Expr) *regex.Expr {
	switch e.Kind {
	case regex.Union:
		type alt struct {
			text string
			e    *regex.Expr
		}
		var alts []alt
		for _, s := range e.Subs {
			s = normalize(s)
			subs := []*regex.Expr{s}
			if s.Kind == regex.Union {
				subs = s.Subs
			}
			for _, x := range subs {
				if x.Kind != regex.Empty {
					alts = append(alts, alt{x.String(), x})
				}
			}
		}
		slices.SortFunc(alts, func(a, b alt) int { return strings.Compare(a.text, b.text) })
		alts = slices.CompactFunc(alts, func(a, b alt) bool { return a.text == b.text })
		subs := make([]*regex.Expr, len(alts))
		for i, a := range alts {
			subs[i] = a.e
		}
		return regex.NewUnion(subs...)
	case regex.Concat:
		var factors []*regex.Expr
		for _, s := range e.Subs {
			switch s = normalize(s); s.Kind {
			case regex.Empty:
				return regex.NewEmpty()
			case regex.Epsilon:
			case regex.Concat:
				factors = append(factors, s.Subs...)
			default:
				factors = append(factors, s)
			}
		}
		return regex.NewConcat(factors...)
	case regex.Star, regex.Plus, regex.Opt:
		return &regex.Expr{Kind: e.Kind, Subs: []*regex.Expr{normalize(e.Sub())}}
	}
	return e
}
