package automata

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/regex"
)

// mapSymbols returns a copy of e with the same shape whose symbols are
// read through rename: a becomes b when rename(a) = (b, true) and ∅ when
// rename rejects a. A nil rename copies e.
func mapSymbols(e *regex.Expr, rename func(string) (string, bool)) *regex.Expr {
	if e.Kind == regex.Symbol && rename != nil {
		if b, ok := rename(e.Sym); ok {
			return regex.NewSymbol(b)
		}
		return regex.NewEmpty()
	}
	out := &regex.Expr{Kind: e.Kind, Sym: e.Sym}
	for _, s := range e.Subs {
		out.Subs = append(out.Subs, mapSymbols(s, rename))
	}
	return out
}

// checkRestrict checks e.Restrict with the labels kept against a
// reference that shares no code with it: e′, e with every other symbol
// replaced by ∅, is empty iff IsEmptyLanguage says so and iff its
// Glushkov automaton accepts nothing, and a label b is useful iff
// L(e′) meets R* b R*.
func checkRestrict(t *testing.T, e *regex.Expr, kept []string) {
	t.Helper()
	keep := func(a string) bool { return slices.Contains(kept, a) }
	useful, empty := e.Restrict(keep)
	restricted := mapSymbols(e, func(a string) (string, bool) { return a, keep(a) })
	if empty != restricted.IsEmptyLanguage() || empty == IntersectionNonEmpty(restricted) {
		t.Fatalf("%s restricted to %v: empty = %v, but L(%s) is ∅ by IsEmptyLanguage: %v, by the Glushkov automaton: %v",
			e, kept, empty, restricted, restricted.IsEmptyLanguage(), !IntersectionNonEmpty(restricted))
	}
	syms := make([]*regex.Expr, len(kept))
	for i, a := range kept {
		syms[i] = regex.NewSymbol(a)
	}
	star := regex.NewStar(regex.NewUnion(syms...))
	var want []string
	for _, b := range e.Alphabet() {
		if IntersectionNonEmpty(restricted, regex.NewConcat(star, regex.NewSymbol(b), star)) {
			want = append(want, b)
		}
	}
	if !slices.Equal(useful, want) {
		t.Fatalf("%s restricted to %v: useful labels %v, want %v", e, kept, useful, want)
	}
}

// TestRestrictMatchesAutomata runs checkRestrict on 10,000 seeded
// random expressions, with ∅ and ε subexpressions sprinkled in, each
// against a random subset of its labels.
func TestRestrictMatchesAutomata(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	labels := []string{"a", "b", "c", "d"}
	g := regex.DefaultGen(labels)
	for i := 0; i < 10000; i++ {
		g.MaxDepth = 1 + r.Intn(6)
		e := sprinkleVoid(r, g.Random(r))
		var kept []string
		for _, a := range labels {
			if r.Intn(3) > 0 {
				kept = append(kept, a)
			}
		}
		checkRestrict(t, e, kept)
	}
}

// FuzzRestrict checks the same reference on raw expression text; bit
// i%8 of mask keeps the i-th label of the sorted alphabet.
func FuzzRestrict(f *testing.F) {
	f.Add("a b + e b + c c* <empty> + <empty> d", uint8(0b1011))
	f.Add("(a (b + c)* d?)+ (a + b)* c", uint8(0b101))
	f.Add("((a b)* <empty>)* c?", uint8(0xff))
	f.Fuzz(func(t *testing.T, src string, mask uint8) {
		e, err := regex.Parse(src)
		if err != nil || e.Size() > 200 {
			t.Skip()
		}
		var kept []string
		for i, a := range e.Alphabet() {
			if mask&(1<<(i%8)) != 0 {
				kept = append(kept, a)
			}
		}
		checkRestrict(t, e, kept)
	})
}
