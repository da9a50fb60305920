package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/automata"
	"repro/internal/regex"
)

// antichainContainment differentially tests the antichain containment
// engine (automata.ContainsCtx, the production path) against the
// retained classic engine (eager determinization + product search) and
// against sampled-word refutation. Besides random pairs it deliberately
// draws from the two calibrated adversarial families at small k — the
// determinization-blowup family, where pruning collapses the search,
// and the antichain-hard family, where pruning never fires — because
// those stress exactly the discard/evict logic a subsumption bug would
// hide in.
type antichainContainment struct{}

func (antichainContainment) Name() string { return "antichain-containment" }

func (antichainContainment) Description() string {
	return "antichain ContainsCtx vs classic eager engine vs sampled-word refutation, incl. adversarial families"
}

// antichainVerdict is the primary implementation under test; it carries
// the deliberate-mutation hook used to prove the oracle catches and
// shrinks injected bugs.
func antichainVerdict(e1, e2 *regex.Expr) bool {
	ok, _ := automata.ContainsCtx(context.Background(), e1, e2)
	if injectedBug == "antichain-containment" && posCount(e2) >= 2 {
		ok = !ok
	}
	return ok
}

// blowupExpr is (a|b)* a (a|b)^k — eager determinization needs 2^(k+1)
// subset states, the lazy engine a handful.
func blowupExpr(k int) *regex.Expr {
	var b strings.Builder
	b.WriteString("(a|b)* a")
	for i := 0; i < k; i++ {
		b.WriteString(" (a|b)")
	}
	return regex.MustParse(b.String())
}

func (o antichainContainment) Trial(r *rand.Rand) *Divergence {
	var e1, e2 *regex.Expr
	switch r.Intn(8) {
	case 0:
		// blowup family: self, against (a|b)*, and from (a|b)*
		k := 1 + r.Intn(6)
		all := regex.MustParse("(a|b)*")
		switch r.Intn(3) {
		case 0:
			e1, e2 = blowupExpr(k), blowupExpr(k)
		case 1:
			e1, e2 = blowupExpr(k), all
		default:
			e1, e2 = all, blowupExpr(k)
		}
	case 1:
		// antichain-hard family: self and cross-k (distinct window
		// lengths disagree on short words)
		k := 1 + r.Intn(4)
		e1 = regex.MustParse(automata.AntichainHardExpr(k))
		if r.Intn(2) == 0 {
			e2 = e1
		} else {
			e2 = regex.MustParse(automata.AntichainHardExpr(1 + r.Intn(4)))
		}
	default:
		g := regex.DefaultGen([]string{"a", "b"})
		g.MaxDepth = 3
		g.MaxFanout = 3
		e1, e2 = g.Random(r), g.Random(r)
		if posCount(e1) > 8 || posCount(e2) > 8 {
			// the classic reference determinizes eagerly; skip oversized
			return nil
		}
	}

	enginesDisagree := func(a, b *regex.Expr) bool {
		return antichainVerdict(a, b) != automata.ContainsClassic(a, b)
	}
	got := antichainVerdict(e1, e2)
	if want := automata.ContainsClassic(e1, e2); got != want {
		s1 := shrinkExpr(e1, func(c *regex.Expr) bool { return enginesDisagree(c, e2) })
		s2 := shrinkExpr(e2, func(c *regex.Expr) bool { return enginesDisagree(s1, c) })
		return &Divergence{
			Input: fmt.Sprintf("e1=%s e2=%s", s1, s2),
			Detail: fmt.Sprintf("antichain ContainsCtx=%v but classic engine=%v",
				antichainVerdict(s1, s2), automata.ContainsClassic(s1, s2)),
		}
	}

	// Sampled-word refutation of a positive antichain verdict: every
	// word of L(e1) must be accepted by e2.
	if got {
		for i := 0; i < 8; i++ {
			w, ok := regex.RandomWord(e1, r)
			if !ok {
				break
			}
			if !regex.Matches(e2, w) {
				return shrinkContainDivergence(e1, e2, w,
					func(a, b *regex.Expr, v []string) bool {
						return antichainVerdict(a, b) && regex.Matches(a, v) && !regex.Matches(b, v)
					},
					"antichain ContainsCtx=true refuted by a sampled word of L(e1) outside L(e2)")
			}
		}
	}

	// The equivalence built on the engine must cohere with the two
	// directed verdicts.
	back := antichainVerdict(e2, e1)
	if eq := automata.Equivalent(e1, e2); eq != (got && back) {
		return &Divergence{
			Input: fmt.Sprintf("e1=%s e2=%s", e1, e2),
			Detail: fmt.Sprintf("Equivalent=%v but directed verdicts are (%v, %v)",
				eq, got, back),
		}
	}
	return nil
}
