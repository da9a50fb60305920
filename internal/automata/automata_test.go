package automata

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/regex"
)

func words(ss ...string) [][]string {
	out := make([][]string, len(ss))
	for i, s := range ss {
		if s == "" {
			out[i] = []string{}
		} else {
			out[i] = strings.Fields(s)
		}
	}
	return out
}

func TestGlushkovAccepts(t *testing.T) {
	cases := []struct {
		re  string
		yes []string
		no  []string
	}{
		{"a", []string{"a"}, []string{"", "b", "a a"}},
		{"a*", []string{"", "a", "a a a"}, []string{"b", "a b"}},
		{"(a + b)* a", []string{"a", "b a", "a b a"}, []string{"", "b", "a b"}},
		{"b* a (b* a)*", []string{"a", "b a", "a b b a"}, []string{"", "b", "a b"}},
		{"name birthplace", []string{"name birthplace"}, []string{"name", "birthplace name"}},
		{"<empty>", nil, []string{"", "a"}},
		{"<eps>", []string{""}, []string{"a"}},
		{"a <empty> b + c", []string{"c"}, []string{"a b", ""}},
	}
	for _, c := range cases {
		n := Glushkov(regex.MustParse(c.re))
		for _, w := range words(c.yes...) {
			if !n.Accepts(w) {
				t.Errorf("Glushkov(%q) rejects %v", c.re, w)
			}
		}
		for _, w := range words(c.no...) {
			if n.Accepts(w) {
				t.Errorf("Glushkov(%q) accepts %v", c.re, w)
			}
		}
	}
}

func TestGlushkovAgreesWithMatcher(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(11))
	wordGen := func() []string {
		n := r.Intn(8)
		w := make([]string, n)
		for i := range w {
			w[i] = []string{"a", "b", "c"}[r.Intn(3)]
		}
		return w
	}
	for i := 0; i < 400; i++ {
		e := g.Random(r)
		n := Glushkov(e)
		d := Determinize(n)
		m := d.Minimize()
		for j := 0; j < 10; j++ {
			w := wordGen()
			want := regex.Matches(e, w)
			if got := n.Accepts(w); got != want {
				t.Fatalf("NFA(%q).Accepts(%v) = %v, oracle %v", e, w, got, want)
			}
			if got := d.Accepts(w); got != want {
				t.Fatalf("DFA(%q).Accepts(%v) = %v, oracle %v", e, w, got, want)
			}
			if got := m.Accepts(w); got != want {
				t.Fatalf("minDFA(%q).Accepts(%v) = %v, oracle %v", e, w, got, want)
			}
		}
		// words sampled from the language must be accepted
		if w, ok := regex.RandomWord(e, r); ok {
			if !m.Accepts(w) {
				t.Fatalf("minDFA(%q) rejects language word %v", e, w)
			}
		}
	}
}

func TestMinimizeCanonical(t *testing.T) {
	// Equivalent expressions must minimize to the same number of states.
	pairs := [][2]string{
		{"(a + b)* a", "b* a (b* a)*"},
		{"a a* ", "a+"},
		{"(a?)*", "a*"},
		{"a b + a c", "a (b + c)"},
	}
	for _, p := range pairs {
		d1 := ToDFA(regex.MustParse(p[0]))
		d2 := ToDFA(regex.MustParse(p[1]))
		if d1.NumStates != d2.NumStates {
			t.Errorf("minimal DFA sizes differ for %q (%d) vs %q (%d)",
				p[0], d1.NumStates, p[1], d2.NumStates)
		}
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b"})
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		e := g.Random(r)
		m := ToDFA(e)
		m2 := m.Minimize()
		if m.NumStates != m2.NumStates {
			t.Fatalf("Minimize not idempotent on %q: %d -> %d states", e, m.NumStates, m2.NumStates)
		}
	}
}

func TestComplement(t *testing.T) {
	e := regex.MustParse("(a + b)* a")
	c := Determinize(Glushkov(e)).Complement(nil)
	for _, w := range words("", "b", "a b") {
		if !c.Accepts(w) {
			t.Errorf("complement rejects %v", w)
		}
	}
	for _, w := range words("a", "b a") {
		if c.Accepts(w) {
			t.Errorf("complement accepts %v", w)
		}
	}
}

func TestContains(t *testing.T) {
	cases := []struct {
		e1, e2 string
		want   bool
	}{
		{"a", "a + b", true},
		{"a + b", "a", false},
		{"(a + b)* a", "(a + b)*", true},
		{"b* a (b* a)*", "(a + b)* a", true},
		{"(a + b)* a", "b* a (b* a)*", true},
		{"a b", "a b?", true},
		{"a b?", "a b", false},
		{"a b?", "a b?", true},
		{"a? b?", "(a + b)?", false}, // "a b" in left only
		{"<empty>", "a", true},
		{"a", "<empty>", false},
		{"a* a b b*", "a* a b b*", true}, // the paper's a*abb*
	}
	for _, c := range cases {
		got := Contains(regex.MustParse(c.e1), regex.MustParse(c.e2))
		if got != c.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", c.e1, c.e2, got, c.want)
		}
	}
}

func TestContainsRandomAgainstSampling(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b"})
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		e1 := g.Random(r)
		e2 := g.Random(r)
		if Contains(e1, e2) {
			// every sampled word of e1 must match e2
			for j := 0; j < 10; j++ {
				if w, ok := regex.RandomWord(e1, r); ok && !regex.Matches(e2, w) {
					t.Fatalf("Contains(%q,%q) true but %v not in e2", e1, e2, w)
				}
			}
		}
	}
}

func TestEquivalent(t *testing.T) {
	if !Equivalent(regex.MustParse("(a + b)* a"), regex.MustParse("b* a (b* a)*")) {
		t.Error("paper Section 4.2.1 equivalence failed")
	}
	if Equivalent(regex.MustParse("(a + b)* a"), regex.MustParse("(a + b)* b")) {
		t.Error("different languages reported equivalent")
	}
}

func TestIntersection(t *testing.T) {
	cases := []struct {
		es   []string
		want bool
	}{
		{[]string{"a*", "a a"}, true},
		{[]string{"a b", "a c"}, false},
		{[]string{"(a + b)*", "a*", "a a a"}, true},
		{[]string{"a+", "b+"}, false},
		{[]string{"a* b", "a a* b", "(a + b)+"}, true},
	}
	for _, c := range cases {
		var es []*regex.Expr
		for _, s := range c.es {
			es = append(es, regex.MustParse(s))
		}
		got := IntersectionNonEmpty(es...)
		if got != c.want {
			t.Errorf("IntersectionNonEmpty(%v) = %v, want %v", c.es, got, c.want)
		}
		if w, ok, _ := IntersectionWitnessCtx(context.Background(), es...); ok {
			for _, e := range es {
				if !regex.Matches(e, w) {
					t.Errorf("witness %v for %v not in %q", w, c.es, e)
				}
			}
		}
	}
}

func TestShortestWitness(t *testing.T) {
	n := Glushkov(regex.MustParse("a a (b + a)"))
	w, ok := n.ShortestWitness()
	if !ok || len(w) != 3 {
		t.Errorf("ShortestWitness = %v, %v", w, ok)
	}
	if _, ok := Glushkov(regex.MustParse("<empty>")).ShortestWitness(); ok {
		t.Error("empty language has witness")
	}
	w, ok = Glushkov(regex.MustParse("a*")).ShortestWitness()
	if !ok || len(w) != 0 {
		t.Errorf("a* shortest witness = %v", w)
	}
}

func TestIsEmpty(t *testing.T) {
	if !Glushkov(regex.MustParse("<empty>")).IsEmpty() {
		t.Error("∅ not empty")
	}
	if !Glushkov(regex.MustParse("a <empty>")).IsEmpty() {
		t.Error("a∅ not empty")
	}
	if Glushkov(regex.MustParse("a?")).IsEmpty() {
		t.Error("a? empty")
	}
}

func TestDeterministicGlushkov(t *testing.T) {
	det := []string{"b* a (b* a)*", "a b c", "(a + b) c", "a* b", "city state country?"}
	nondet := []string{"(a + b)* a", "a? a", "(a b)* a"}
	for _, s := range det {
		if !Glushkov(regex.MustParse(s)).IsDeterministic() {
			t.Errorf("%q should be deterministic", s)
		}
	}
	for _, s := range nondet {
		if Glushkov(regex.MustParse(s)).IsDeterministic() {
			t.Errorf("%q should not be deterministic", s)
		}
	}
}

func TestKOREDFABound(t *testing.T) {
	// Theorem 4.6(a): a k-ORE over Σ converts to a DFA with ≤ |Σ|·2^k states
	// (we verify the spirit of the bound: states ≤ |Σ|·2^k + 2 covering the
	// initial state and sink on small random k-OREs).
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		e := g.Random(r)
		k := e.MaxOccurrences()
		if k == 0 || k > 6 {
			continue
		}
		sigma := len(e.Alphabet())
		d := ToDFA(e)
		bound := sigma*(1<<uint(k)) + 2
		if d.NumStates > bound {
			t.Fatalf("DFA for %d-ORE %q has %d states > bound %d", k, e, d.NumStates, bound)
		}
	}
}

// TestProjectRestrictUsefulLabels checks the primitives the schema
// packages reduce to, on an automaton with a dead branch, an unreachable
// state and a label that restriction removes:
//
//	0 -a-> 1 -b-> 2 (final)    live path
//	0 -e-> 5 -b-> 2            live path through e
//	0 -c-> 3 -c-> 3            dead branch: 3 cannot reach a final state
//	4 -d-> 2                   4 is unreachable
func TestProjectRestrictUsefulLabels(t *testing.T) {
	base := NewNFA(6)
	base.Initial = []int{0}
	base.Final[2] = true
	for _, tr := range []struct {
		q int
		a string
		p int
	}{{0, "a", 1}, {1, "b", 2}, {0, "e", 5}, {5, "b", 2}, {0, "c", 3}, {3, "c", 3}, {4, "d", 2}} {
		base.AddTransition(tr.q, tr.a, tr.p)
	}
	other := Glushkov(regex.MustParse("(a|x) b"))
	cases := []struct {
		name    string
		n       *NFA
		useful  []string
		word    []string // accepted iff accepts
		accepts bool
		witness []string // shortest word also in L((a|x) b); nil when none
	}{
		{"dead branch and unreachable state", base, []string{"a", "b", "e"}, []string{"e", "b"}, true, []string{"a", "b"}},
		{"restriction removes e", base.Restrict(map[string]bool{"a": true, "b": true, "c": true, "d": true}),
			[]string{"a", "b"}, []string{"e", "b"}, false, []string{"a", "b"}},
		{"restriction removes b, so no state reaches a final one", base.Restrict(map[string]bool{"a": true, "c": true, "d": true, "e": true}),
			[]string{}, []string{"a"}, false, nil},
		{"projection renames a and e to x and drops c", base.Project(func(a string) (string, bool) {
			switch a {
			case "a", "e":
				return "x", true
			case "c":
				return "", false
			}
			return a, true
		}), []string{"b", "x"}, []string{"x", "b"}, true, []string{"x", "b"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.n.NumStates != base.NumStates || !slices.Equal(c.n.Initial, base.Initial) || !c.n.Final[2] || len(c.n.Final) != 1 {
				t.Fatalf("states changed: %d states, initial %v, final %v", c.n.NumStates, c.n.Initial, c.n.Final)
			}
			if got := c.n.UsefulLabels(); !slices.Equal(got, c.useful) {
				t.Errorf("UsefulLabels = %v, want %v", got, c.useful)
			}
			if got := c.n.Accepts(c.word); got != c.accepts {
				t.Errorf("Accepts(%v) = %v, want %v", c.word, got, c.accepts)
			}
			w, ok, err := NFAIntersectionWitnessCtx(context.Background(), c.n, other)
			if err != nil || ok != (c.witness != nil) || !slices.Equal(w, c.witness) {
				t.Errorf("NFAIntersectionWitnessCtx = %v, %v, %v; want %v", w, ok, err, c.witness)
			}
		})
	}
}
