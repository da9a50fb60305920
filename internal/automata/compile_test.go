package automata

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/regex"
)

// sprinkleVoid wraps random subexpressions of e as (x ∅), (x | ε) or
// (x ε), so the lowering meets positions that extend the alphabet but
// yield no transition, and nullable factors inside concatenations.
func sprinkleVoid(r *rand.Rand, e *regex.Expr) *regex.Expr {
	out := &regex.Expr{Kind: e.Kind, Sym: e.Sym}
	for _, s := range e.Subs {
		out.Subs = append(out.Subs, sprinkleVoid(r, s))
	}
	switch f := r.Float64(); {
	case f < 0.04:
		return &regex.Expr{Kind: regex.Concat, Subs: []*regex.Expr{out, regex.NewEmpty()}}
	case f < 0.08:
		return &regex.Expr{Kind: regex.Union, Subs: []*regex.Expr{out, regex.NewEpsilon()}}
	case f < 0.12:
		return &regex.Expr{Kind: regex.Concat, Subs: []*regex.Expr{regex.NewEpsilon(), out}}
	}
	return out
}

// requireSameTables fails unless got and want have the same shape,
// initial states, final bitset, and successor list and mask per cell.
func requireSameTables(t *testing.T, e *regex.Expr, want, got *compiledNFA) {
	t.Helper()
	if got.numStates != want.numStates || got.width != want.width {
		t.Fatalf("%s: %d states × %d labels, want %d × %d", e, got.numStates, got.width, want.numStates, want.width)
	}
	if !slices.Equal(got.initial, want.initial) {
		t.Fatalf("%s: initial %v, want %v", e, got.initial, want.initial)
	}
	if !got.final.Equal(want.final) {
		t.Fatalf("%s: final %v, want %v", e, got.final.Members(), want.final.Members())
	}
	for i := range want.trans {
		q, l := i/want.width, i%want.width
		if !slices.Equal(got.trans[i], want.trans[i]) {
			t.Fatalf("%s: state %d label %d: successors %v, want %v", e, q, l, got.trans[i], want.trans[i])
		}
		if (got.mask[i] == nil) != (want.mask[i] == nil) || (want.mask[i] != nil && !got.mask[i].Equal(want.mask[i])) {
			t.Fatalf("%s: state %d label %d: mask %v, want %v", e, q, l, got.mask[i], want.mask[i])
		}
	}
}

// checkLowering compiles e both ways onto one label table that already
// holds other's labels, as the right side of a containment check sees it,
// after checking that both ways agree on e's alphabet.
func checkLowering(t *testing.T, other, e *regex.Expr) {
	t.Helper()
	l, n := regex.Linearize(e), Glushkov(e)
	if alpha := linearAlphabet(l); !slices.Equal(alpha, n.Alphabet) {
		t.Fatalf("%s: alphabet %v, want %v", e, alpha, n.Alphabet)
	}
	labels := newLabelTable()
	labels.add(other.Alphabet())
	labels.add(n.Alphabet)
	want := compileNFA(n, labels)
	got := compileLinear(l, labels)
	requireSameTables(t, e, want, got)
}

// TestCompileLinearMatchesGlushkov checks that the direct lowering of a
// linearization equals compileNFA of the Glushkov automaton, cell for
// cell, on seeded random expressions with ∅ and ε subexpressions.
func TestCompileLinearMatchesGlushkov(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g := regex.DefaultGen([]string{"a", "b", "c", "d", "e"})
	for i := 0; i < 2000; i++ {
		g.MaxDepth = 1 + r.Intn(6)
		other := g.Random(r)
		e := sprinkleVoid(r, g.Random(r))
		checkLowering(t, other, e)
	}
	for _, src := range []string{"<eps>", "<empty>", "a <empty>", "(a <empty>)* b", "(a b)* <empty> + c"} {
		checkLowering(t, regex.MustParse("z"), regex.MustParse(src))
	}
}

// FuzzCompileLinear checks the same property on raw expression text.
func FuzzCompileLinear(f *testing.F) {
	f.Add("b* a (b* a)*", "a")
	f.Add("(a + b)* a (a + b)", "c d")
	f.Add("a <empty> + <eps>", "a")
	f.Add("((a b)* <empty>)* c?", "b")
	f.Fuzz(func(t *testing.T, src, otherSrc string) {
		e, err := regex.Parse(src)
		if err != nil || e.Size() > 200 {
			t.Skip()
		}
		other, err := regex.Parse(otherSrc)
		if err != nil {
			other = regex.NewEpsilon()
		}
		checkLowering(t, other, e)
	})
}
