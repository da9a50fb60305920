package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/automata"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

// regexMembership cross-checks four word-membership implementations:
// the memoized matcher (ref.Matches), Brzozowski derivatives
// (ref.MatchesDerivative), the minimal DFA of automata.ToDFA, and the
// compiled automata.Matcher the service caches. The last two share the
// Glushkov visit; the first two share no automata code.
type regexMembership struct{}

func (regexMembership) Name() string { return "regex-membership" }

func (regexMembership) Description() string {
	return "ref.Matches vs ref.MatchesDerivative vs determinized DFA vs compiled Matcher on sampled and random words"
}

var memberAlphabet = []string{"a", "b", "c"}

// memberVerdicts returns the four membership verdicts for (e, w). The
// DFA verdict carries the deliberate-mutation hook used to prove the
// oracle catches and shrinks injected bugs.
func memberVerdicts(e *regex.Expr, w []string) [4]bool {
	dfa := automata.ToDFA(e).Accepts(w)
	if injectedBug == "regex-membership" && len(w) >= 2 {
		dfa = !dfa
	}
	matcher, _ := automata.NewMatcher(e).Accepts(context.Background(), w)
	return [4]bool{
		ref.Matches(e, w),
		ref.MatchesDerivative(e, w),
		dfa,
		matcher,
	}
}

func memberDisagree(e *regex.Expr, w []string) bool {
	v := memberVerdicts(e, w)
	return v[0] != v[1] || v[0] != v[2] || v[0] != v[3]
}

func (o regexMembership) Trial(r *rand.Rand) *Divergence {
	g := regex.DefaultGen(memberAlphabet)
	g.MaxDepth = 4
	e := g.Random(r)
	if posCount(e) > 12 {
		// subset construction is exponential in the position count; skip
		// oversized instances (deterministically, so replay still works)
		return nil
	}
	words := memberTrialWords(e, r)
	for _, w := range words {
		if memberDisagree(e, w) {
			return shrinkMemberDivergence(e, w)
		}
	}
	return nil
}

// memberTrialWords mixes positive samples from L(e), uniform random
// words, and single-edit mutants of positive words — the mutants probe
// the accept/reject boundary where off-by-one bugs live.
func memberTrialWords(e *regex.Expr, r *rand.Rand) [][]string {
	var words [][]string
	for i := 0; i < 4; i++ {
		if w, ok := regex.RandomWord(e, r); ok {
			words = append(words, w)
		}
	}
	for i := 0; i < 4; i++ {
		w := make([]string, r.Intn(6))
		for j := range w {
			w[j] = memberAlphabet[r.Intn(len(memberAlphabet))]
		}
		words = append(words, w)
	}
	for i := 0; i < 2 && len(words) > 0; i++ {
		words = append(words, mutateWord(words[r.Intn(len(words))], r))
	}
	return words
}

func mutateWord(w []string, r *rand.Rand) []string {
	out := append([]string(nil), w...)
	switch r.Intn(3) {
	case 0: // insert
		i := r.Intn(len(out) + 1)
		out = append(out[:i], append([]string{memberAlphabet[r.Intn(len(memberAlphabet))]}, out[i:]...)...)
	case 1: // delete
		if len(out) > 0 {
			i := r.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		}
	default: // replace
		if len(out) > 0 {
			out[r.Intn(len(out))] = memberAlphabet[r.Intn(len(memberAlphabet))]
		}
	}
	return out
}

func shrinkMemberDivergence(e *regex.Expr, w []string) *Divergence {
	// alternate expression and word shrinking until neither improves
	for i := 0; i < 4; i++ {
		e2 := shrinkExpr(e, func(c *regex.Expr) bool { return memberDisagree(c, w) })
		w2 := shrinkWord(w, func(c []string) bool { return memberDisagree(e2, c) })
		if e2.Size() == e.Size() && len(w2) == len(w) {
			e, w = e2, w2
			break
		}
		e, w = e2, w2
	}
	v := memberVerdicts(e, w)
	return &Divergence{
		Input: fmt.Sprintf("expr=%s word=%q", e, strings.Join(w, " ")),
		Detail: fmt.Sprintf("Matches=%v MatchesDerivative=%v DeterminizedDFA=%v Matcher=%v",
			v[0], v[1], v[2], v[3]),
	}
}
