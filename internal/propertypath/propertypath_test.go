package propertypath

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

// TestTransitionMonoidLargeStateIDs: on a 107-state DFA where a swaps
// states 5 and 105 and b swaps 6 and 106, the monoid is the four
// functions {id, a, b, ab}. A key that kept only the last two decimal
// digits of each state id would take a and b for the identity.
func TestTransitionMonoidLargeStateIDs(t *testing.T) {
	d := &automata.DFA{Alphabet: []string{"a", "b"}, Final: make([]bool, 107)}
	for q := range d.Final {
		d.Next = append(d.Next, q, q)
	}
	d.Next[2*5], d.Next[2*105] = 105, 5
	d.Next[2*6+1], d.Next[2*106+1] = 106, 6
	if elements, _ := transitionMonoid(d); len(elements) != 4 {
		t.Fatalf("monoid has %d elements, want 4", len(elements))
	}
}

// TestDownwardClosedSound samples words of every random expression found
// downward closed and checks by Brzozowski derivatives, which share no
// code with the containment engine, that deleting any one letter keeps
// them in the language.
func TestDownwardClosedSound(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b"})
	g.MaxDepth = 4
	r := rand.New(rand.NewSource(1))
	closed := 0
	for i := 0; i < 2000; i++ {
		e := g.Random(r)
		if !IsDownwardClosed(e) {
			continue
		}
		closed++
		for j := 0; j < 5; j++ {
			w, _ := regex.RandomWord(e, r)
			if len(w) > 10 { // derivatives grow with the word
				continue
			}
			for k := range w {
				del := append(slices.Clone(w[:k]), w[k+1:]...)
				if !ref.MatchesDerivative(e, del) {
					t.Fatalf("%s is reported downward closed, but has %q and not %q", e, w, del)
				}
			}
		}
	}
	if closed == 0 {
		t.Fatal("no sampled expression is downward closed")
	}
	t.Logf("%d of 2000 downward closed", closed)
}
