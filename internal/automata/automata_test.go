package automata

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// successors returns the sorted states q steps to on any label.
func successors(n *NFA, q int) []int {
	var out []int
	for _, ps := range n.Trans[q] {
		out = append(out, ps...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestGlushkovPositions pins the position automaton of (a + b)* a, with
// positions 1=a, 2=b, 3=a: First = {1,2,3}, Last = {3}, and positions 1
// and 2 each step to {1,2,3}.
func TestGlushkovPositions(t *testing.T) {
	n := Glushkov(regex.MustParse("(a + b)* a"))
	if n.NumStates != 4 || !slices.Equal(n.Initial, []int{0}) {
		t.Fatalf("%d states, initial %v, want 4 states, initial [0]", n.NumStates, n.Initial)
	}
	for q, want := range [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, nil} {
		if got := successors(n, q); !slices.Equal(got, want) {
			t.Errorf("successors of %d = %v, want %v", q, got, want)
		}
	}
	if got := n.Trans[0]["a"]; !slices.Equal(got, []int{1, 3}) {
		t.Errorf("0 --a--> %v, want [1 3]", got)
	}
	if got := n.Trans[0]["b"]; !slices.Equal(got, []int{2}) {
		t.Errorf("0 --b--> %v, want [2]", got)
	}
	for q := 0; q < n.NumStates; q++ {
		if n.Final[q] != (q == 3) {
			t.Errorf("Final[%d] = %v, want only 3 final", q, n.Final[q])
		}
	}
}

// numTransitions counts the (state, label, successor) triples of n.
func numTransitions(n *NFA) int {
	k := 0
	for _, row := range n.Trans {
		for _, ps := range row {
			k += len(ps)
		}
	}
	return k
}

// TestGlushkovAllocsLinear bounds the allocations of Glushkov linearly
// by the size of its output, positions plus transitions, on growing
// families. The NFA itself takes about one allocation per item (a map
// per state, a successor slice per state and label); one allocation per
// node or per deduplicated merge of two position sets on top of that
// exceeds the bound on these shapes.
func TestGlushkovAllocsLinear(t *testing.T) {
	syms := func(k int) []*regex.Expr {
		out := make([]*regex.Expr, k)
		for i := range out {
			out[i] = regex.NewSymbol(fmt.Sprintf("a%d", i))
		}
		return out
	}
	families := []struct {
		name  string
		build func(k int) *regex.Expr
	}{
		// (((a0 a1)* a2)* … ak-1)*: k nested stars.
		{"nested-star", func(k int) *regex.Expr {
			s := syms(k)
			e := s[0]
			for _, x := range s[1:] {
				e = regex.NewStar(regex.NewConcat(e, x))
			}
			return e
		}},
		// a0 + a1 + … + ak-1: k positions, k transitions from the start.
		{"wide-union", func(k int) *regex.Expr { return regex.NewUnion(syms(k)...) }},
		// (a0 + … + ak-1)*: k positions, k² + k transitions.
		{"wide-union-star", func(k int) *regex.Expr { return regex.NewStar(regex.NewUnion(syms(k)...)) }},
	}
	for _, f := range families {
		for _, k := range []int{16, 64, 256} {
			e := f.build(k)
			n := Glushkov(e)
			size := n.NumStates - 1 + numTransitions(n)
			allocs := testing.AllocsPerRun(5, func() { Glushkov(e) })
			if allocs > float64(2*size+32) {
				t.Errorf("%s k=%d: %.0f allocations for %d positions + transitions", f.name, k, allocs, size)
			}
			t.Logf("%s k=%d: %.0f allocations, output size %d", f.name, k, allocs, size)
		}
	}
}

// TestGlushkovBytesLinear bounds the bytes Glushkov allocates on a long
// concatenation a b? a b? … by its positions plus transitions. Follow
// sets kept as per-position bitsets would take n²/8 bytes for n
// positions: 50 MB here, twice the bound.
func TestGlushkovBytesLinear(t *testing.T) {
	e := regex.MustParse(strings.Repeat("a b? ", 10000))
	n := Glushkov(e)
	size := n.NumStates - 1 + numTransitions(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Glushkov(e)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if bytes > uint64(500*size) {
		t.Fatalf("Glushkov allocated %d bytes for %d positions + transitions, want ≤ 500 per item", bytes, size)
	}
	t.Logf("%d bytes for %d positions + transitions", bytes, size)
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
	for re, want := range map[string]bool{"<empty>": true, "a <empty>": true, "a?": false, "(a <empty>)*": false} {
		if got := !IntersectionNonEmpty(regex.MustParse(re)); got != want {
			t.Errorf("L(%s) empty = %v, want %v", re, got, want)
		}
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

// TestProjectRestrictUsefulLabels checks what the schema packages
// reduce to — a label map on the left side of ContainsMappedCtx and
// regex.Restrict's useful labels — on an expression with a dead branch
// and a symbol under ∅, and a label that restriction removes:
//
//	a b + e b        live words
//	c c* <empty>     dead branch: c c* cannot complete a word
//	<empty> d        d sits under ∅
//
// Each case maps the symbols with mapSymbols to check acceptance on the
// Glushkov automaton of the result and its intersection witnesses.
func TestProjectRestrictUsefulLabels(t *testing.T) {
	base := regex.MustParse("a b + e b + c c* <empty> + <empty> d")
	restrict := func(labels ...string) func(string) (string, bool) {
		return func(a string) (string, bool) { return a, slices.Contains(labels, a) }
	}
	other := regex.MustParse("(a|x) b")
	cases := []struct {
		name    string
		rename  func(string) (string, bool)
		useful  []string
		word    []string // accepted iff accepts
		accepts bool
		witness []string // shortest word also in L((a|x) b); nil when none
	}{
		{"dead branch and unreachable state", restrict("a", "b", "c", "d", "e"), []string{"a", "b", "e"}, []string{"e", "b"}, true, []string{"a", "b"}},
		{"restriction removes e", restrict("a", "b", "c", "d"),
			[]string{"a", "b"}, []string{"e", "b"}, false, []string{"a", "b"}},
		{"restriction removes b, so no state reaches a final one", restrict("a", "c", "d", "e"),
			nil, []string{"a"}, false, nil},
		{"projection renames a and e to x and drops c", func(a string) (string, bool) {
			switch a {
			case "a", "e":
				return "x", true
			case "c":
				return "", false
			}
			return a, true
		}, []string{"b", "x"}, []string{"x", "b"}, true, []string{"x", "b"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kept, _ := base.Restrict(func(a string) bool { _, ok := c.rename(a); return ok })
			var useful []string
			for _, a := range kept {
				b, _ := c.rename(a)
				useful = append(useful, b)
			}
			slices.Sort(useful)
			if useful = slices.Compact(useful); !slices.Equal(useful, c.useful) {
				t.Errorf("useful labels = %v, want %v", useful, c.useful)
			}
			n := Glushkov(mapSymbols(base, c.rename))
			if got := n.Accepts(c.word); got != c.accepts {
				t.Errorf("Accepts(%v) = %v, want %v", c.word, got, c.accepts)
			}
			w, ok, err := IntersectionWitnessCtx(context.Background(), mapSymbols(base, c.rename), other)
			if err != nil || ok != (c.witness != nil) || !slices.Equal(w, c.witness) {
				t.Errorf("IntersectionWitnessCtx = %v, %v, %v; want %v", w, ok, err, c.witness)
			}
			// The label map agrees with containment of the mapped
			// expression.
			got, err := ContainsMappedCtx(context.Background(), base, c.rename, other)
			if want := Contains(mapSymbols(base, c.rename), other); err != nil || got != want {
				t.Errorf("ContainsMappedCtx(_, %s) = %v, %v; want %v", other, got, err, want)
			}
		})
	}
}
