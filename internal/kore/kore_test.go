package kore

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/regex"
)

func TestKAndSORE(t *testing.T) {
	cases := []struct {
		re   string
		k    int
		sore bool
	}{
		{"a b c", 1, true},
		{"a b a", 2, false},
		{"(a + b)* a (a + b)", 3, false},
		{"person*", 1, true},
		{"city state country?", 1, true},
		{"<eps>", 0, true},
		{"a a a a", 4, false},
	}
	for _, c := range cases {
		e := regex.MustParse(c.re)
		if got := K(e); got != c.k {
			t.Errorf("K(%q) = %d, want %d", c.re, got, c.k)
		}
		if got := IsSORE(e); got != c.sore {
			t.Errorf("IsSORE(%q) = %v, want %v", c.re, got, c.sore)
		}
		if !IsKORE(e, c.k) || (c.k > 0 && IsKORE(e, c.k-1)) {
			t.Errorf("IsKORE(%q) inconsistent with K", c.re)
		}
	}
}

func TestDFABoundHolds(t *testing.T) {
	// Theorem 4.6(a): a k-ORE over Σ has a DFA with ≤ |Σ|·2^k states.
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(33))
	checked := 0
	for i := 0; i < 300; i++ {
		e := g.Random(r)
		if K(e) > 7 {
			continue
		}
		if _, _, ok := DeterminizeWithinBound(e); !ok {
			states, bound, _ := DeterminizeWithinBound(e)
			t.Fatalf("bound violated for %q: %d > %d", e, states, bound)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d expressions checked", checked)
	}
}

func TestKOREContainmentIntersection(t *testing.T) {
	if ok, err := ContainmentCtx(context.Background(), regex.MustParse("a b a"), regex.MustParse("a b? a")); err != nil || !ok {
		t.Error("aba ⊆ ab?a")
	}
	if ok, err := ContainmentCtx(context.Background(), regex.MustParse("a b? a"), regex.MustParse("a b a")); err != nil || ok {
		t.Error("ab?a ⊄ aba")
	}
	// Intersection is PSPACE-complete for every fixed k ≥ 3 (Theorem
	// 4.6(b)), so k-OREs go to the general product construction.
	if !automata.IntersectionNonEmpty(regex.MustParse("a* b a*"), regex.MustParse("a b a")) {
		t.Error("aba in both")
	}
	if automata.IntersectionNonEmpty(regex.MustParse("a a"), regex.MustParse("a a a")) {
		t.Error("lengths disagree")
	}
}
