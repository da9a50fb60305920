package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/automata"
	"repro/internal/chare"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

// antichainContainment checks the containment engine
// (automata.ContainsCtx, the production path) against ref.Contains, a
// breadth-first search over pairs of Brzozowski derivatives that shares
// no code with the Glushkov visit the engine lowers both sides with.
// Besides random pairs it deliberately draws from the two calibrated
// adversarial families at small k — the determinization-blowup family,
// where pruning collapses the search, and the antichain-hard family,
// where pruning never fires — because those stress exactly the
// discard/evict logic a subsumption bug would hide in. Each trial also
// checks the engine against sampled words of L(e1), reflexivity, the
// union upper bound and Equivalent, that Simplify preserves the
// language, and that the CHARE deciders agree with automata.Contains.
type antichainContainment struct{}

func (antichainContainment) Name() string { return "antichain-containment" }

func (antichainContainment) Description() string {
	return "antichain ContainsCtx vs derivative ref.Contains, sampled-word refutation, reflexivity, union upper bound, Simplify language preservation, chare.Contains; incl. adversarial families"
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
	return regex.MustParse("(a|b)* a" + strings.Repeat(" (a|b)", k))
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
			// keep the reference's derivative search small
			return nil
		}
	}

	want, decided := ref.Contains(e1, e2)
	if !decided {
		return &Divergence{
			Input:  fmt.Sprintf("e1=%s e2=%s", e1, e2),
			Detail: "ref.Contains undecided within its pair budget",
		}
	}
	got := antichainVerdict(e1, e2)
	if got != want {
		enginesDisagree := func(a, b *regex.Expr) bool {
			want, decided := ref.Contains(a, b)
			return decided && antichainVerdict(a, b) != want
		}
		s1 := shrinkExpr(e1, func(c *regex.Expr) bool { return enginesDisagree(c, e2) })
		s2 := shrinkExpr(e2, func(c *regex.Expr) bool { return enginesDisagree(s1, c) })
		want, _ = ref.Contains(s1, s2)
		return &Divergence{
			Input:  fmt.Sprintf("e1=%s e2=%s", s1, s2),
			Detail: fmt.Sprintf("antichain ContainsCtx=%v but ref.Contains=%v", antichainVerdict(s1, s2), want),
		}
	}

	// Every sampled word of L(e1) is in L(e1), and in L(e2) when the
	// engine says e1 ⊆ e2.
	for i := 0; i < 8; i++ {
		w, ok := regex.RandomWord(e1, r)
		if !ok {
			break
		}
		if !ref.Matches(e1, w) {
			return shrinkContainDivergence(e1, e2, w,
				func(a, b *regex.Expr, v []string) bool { return !ref.Matches(a, v) },
				"RandomWord sampled a word from L(e1) that ref.Matches rejects")
		}
		if got && !ref.Matches(e2, w) {
			return shrinkContainDivergence(e1, e2, w,
				func(a, b *regex.Expr, v []string) bool {
					return antichainVerdict(a, b) && ref.Matches(a, v) && !ref.Matches(b, v)
				},
				"antichain ContainsCtx=true refuted by a sampled word of L(e1) outside L(e2)")
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

	// metamorphic identities of the containment decision
	if !antichainVerdict(e1, e1) {
		return &Divergence{
			Input:  fmt.Sprintf("e1=%s", e1),
			Detail: "antichain ContainsCtx(e1,e1)=false (reflexivity violated)",
		}
	}
	if !antichainVerdict(e1, regex.NewUnion(e1.Clone(), e2.Clone())) {
		e1s := shrinkExpr(e1, func(c *regex.Expr) bool {
			return !antichainVerdict(c, regex.NewUnion(c.Clone(), e2.Clone()))
		})
		return &Divergence{
			Input:  fmt.Sprintf("e1=%s e2=%s", e1s, e2),
			Detail: "antichain ContainsCtx(e1, e1|e2)=false (union upper bound violated)",
		}
	}
	if s := e1.Simplify(); !automata.Equivalent(e1, s) {
		e1s := shrinkExpr(e1, func(c *regex.Expr) bool {
			return !automata.Equivalent(c, c.Simplify())
		})
		return &Divergence{
			Input:  fmt.Sprintf("e1=%s simplified=%s", e1s, e1s.Simplify()),
			Detail: "Simplify changed the language (automata.Equivalent(e, e.Simplify())=false)",
		}
	}

	// specialized CHARE deciders vs the general automata construction
	c1 := chare.RandomCHARE(r, []string{"a", "b", "c"}, 1+r.Intn(3))
	c2 := chare.RandomCHARE(r, []string{"a", "b", "c"}, 1+r.Intn(3))
	if cg, method := chare.Contains(c1, c2); cg != automata.Contains(c1.Expr(), c2.Expr()) {
		c1, c2 = shrinkCHAREPair(c1, c2)
		cg, method = chare.Contains(c1, c2)
		return &Divergence{
			Input: fmt.Sprintf("c1=%s c2=%s", c1, c2),
			Detail: fmt.Sprintf("chare.Contains=%v (method %v) but automata.Contains=%v",
				cg, method, automata.Contains(c1.Expr(), c2.Expr())),
		}
	}
	return nil
}

// shrinkContainDivergence shrinks e1, then e2, then w while diverges
// holds, and reports the result with detail.
func shrinkContainDivergence(e1, e2 *regex.Expr, w []string,
	diverges func(*regex.Expr, *regex.Expr, []string) bool, detail string) *Divergence {
	e1 = shrinkExpr(e1, func(c *regex.Expr) bool { return diverges(c, e2, w) })
	e2 = shrinkExpr(e2, func(c *regex.Expr) bool { return diverges(e1, c, w) })
	w = shrinkWord(w, func(c []string) bool { return diverges(e1, e2, c) })
	return &Divergence{
		Input:  fmt.Sprintf("e1=%s e2=%s word=%q", e1, e2, strings.Join(w, " ")),
		Detail: detail,
	}
}

// shrinkCHAREPair drops factors from either CHARE while the specialized
// and general deciders still disagree.
func shrinkCHAREPair(c1, c2 *chare.CHARE) (*chare.CHARE, *chare.CHARE) {
	disagree := func(a, b *chare.CHARE) bool {
		if len(a.Factors) == 0 || len(b.Factors) == 0 {
			return false
		}
		got, _ := chare.Contains(a, b)
		return got != automata.Contains(a.Expr(), b.Expr())
	}
	c1.Factors = shrinkList(c1.Factors, func(fs []chare.Factor) bool {
		return disagree(&chare.CHARE{Factors: fs}, c2)
	})
	c2.Factors = shrinkList(c2.Factors, func(fs []chare.Factor) bool {
		return disagree(c1, &chare.CHARE{Factors: fs})
	})
	return c1, c2
}
