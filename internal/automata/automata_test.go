package automata

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/oracle/ref"
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
		m := NewMatcher(regex.MustParse(c.re))
		for _, w := range words(c.yes...) {
			if !accepts(m, w) {
				t.Errorf("NewMatcher(%q) rejects %v", c.re, w)
			}
		}
		for _, w := range words(c.no...) {
			if accepts(m, w) {
				t.Errorf("NewMatcher(%q) accepts %v", c.re, w)
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
		n := NewMatcher(e)
		d, _ := determinizeCtx(context.Background(), n)
		m := d.Minimize()
		for j := 0; j < 10; j++ {
			w := wordGen()
			want := ref.Matches(e, w)
			if got := accepts(n, w); got != want {
				t.Fatalf("Matcher(%q).Accepts(%v) = %v, oracle %v", e, w, got, want)
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

// successors returns the sorted states q steps to on any label: the
// targets of the products q is a source of.
func successors(m *Matcher, q int) []int32 {
	var out []int32
	for _, k := range m.in[m.inOff[q]:m.inOff[q+1]] {
		out = append(out, m.to[m.toOff[k]:m.toOff[k+1]]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestGlushkovPositions pins the position automaton of (a + b)* a, with
// positions 1=a, 2=b, 3=a: First = {1,2,3}, Last = {3}, and positions 1
// and 2 each step to {1,2,3}.
func TestGlushkovPositions(t *testing.T) {
	m := NewMatcher(regex.MustParse("(a + b)* a"))
	if len(m.lab) != 4 || !slices.Equal(m.Start(), []int32{0}) {
		t.Fatalf("%d states, initial %v, want 4 states, initial [0]", len(m.lab), m.Start())
	}
	for q, want := range [][]int32{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, nil} {
		if got := successors(m, q); !slices.Equal(got, want) {
			t.Errorf("successors of %d = %v, want %v", q, got, want)
		}
	}
	if got := m.Step([]int32{0}, "a"); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("0 --a--> %v, want [1 3]", got)
	}
	if got := m.Step([]int32{0}, "b"); !slices.Equal(got, []int32{2}) {
		t.Errorf("0 --b--> %v, want [2]", got)
	}
	for q := range m.lab {
		if m.final.Has(q) != (q == 3) {
			t.Errorf("final(%d) = %v, want only 3 final", q, m.final.Has(q))
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
		if d1.NumStates() != d2.NumStates() {
			t.Errorf("minimal DFA sizes differ for %q (%d) vs %q (%d)",
				p[0], d1.NumStates(), p[1], d2.NumStates())
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
		if m.NumStates() != m2.NumStates() {
			t.Fatalf("Minimize not idempotent on %q: %d -> %d states", e, m.NumStates(), m2.NumStates())
		}
	}
}

// toDFAGoldenDigest is the SHA-256 of the lines TestToDFAGolden writes.
// A change means ToDFA returns another automaton for some expression —
// other states, finality or transitions — not a flaky test.
const toDFAGoldenDigest = "4f09ec46a1b2bb153a37c89a3f8c0c427020b772dba3da6a9e2f3ca0c28761d5"

// TestToDFAGolden hashes the minimal DFA of ToDFA — its state count and
// alphabet, then per state in order its finality and its successor on
// each label in alphabet order — on ~5,000 seeded expressions with ∅
// and ε subexpressions.
func TestToDFAGolden(t *testing.T) {
	h := sha256.New()
	r := rand.New(rand.NewSource(61))
	g := regex.DefaultGen([]string{"a", "b", "c", "d"})
	for i := 0; i < 5000; i++ {
		g.MaxDepth = 1 + r.Intn(5)
		e := sprinkleVoid(r, g.Random(r))
		if positions, _ := measure(e); positions > 16 {
			continue // keep the subset construction cheap
		}
		d := ToDFA(e)
		fmt.Fprintf(h, "%s\t%d\t%q\n", e, d.NumStates(), d.Alphabet)
		for q := 0; q < d.NumStates(); q++ {
			fmt.Fprintf(h, "%v", d.Final[q])
			for l := range d.Alphabet {
				fmt.Fprintf(h, " %d", d.Step(q, l))
			}
			fmt.Fprintln(h)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != toDFAGoldenDigest {
		t.Fatalf("ToDFA digest = %s, want %s", got, toDFAGoldenDigest)
	}
}

// FuzzDFA checks the DFA table on two expressions and a word: ToDFA
// agrees with the Matcher, Intersect with both Matchers, and Minimize
// returns the same table for a minimal DFA.
func FuzzDFA(f *testing.F) {
	f.Add("(a + b)* a", "b* a (b* a)*", "b a b a")
	f.Add("(x + y + z) (x + y + z)*", "x* y", "x x y")
	f.Add("a? b+", "(a + c)* b b", "b b")
	f.Add("a <empty> + <eps>", "a*", "")
	f.Add("(a b* + c)+", "c <empty>", "a b d")
	f.Fuzz(func(t *testing.T, src1, src2, wordSrc string) {
		var ds [2]*DFA
		var in [2]bool
		w := strings.Fields(wordSrc)
		if len(w) > 12 {
			w = w[:12]
		}
		for i, src := range []string{src1, src2} {
			e, err := regex.Parse(src)
			if err != nil || e.Size() > 60 {
				t.Skip()
			}
			if positions, _ := measure(e); positions > 12 {
				t.Skip()
			}
			ds[i], in[i] = ToDFA(e), accepts(NewMatcher(e), w)
			if got := ds[i].Accepts(w); got != in[i] {
				t.Fatalf("ToDFA(%s).Accepts(%q) = %v, Matcher %v", e, w, got, in[i])
			}
			m := ds[i].Minimize()
			if !slices.Equal(m.Alphabet, ds[i].Alphabet) || !slices.Equal(m.Next, ds[i].Next) || !slices.Equal(m.Final, ds[i].Final) {
				t.Fatalf("Minimize of ToDFA(%s) = %+v, want the same table %+v", e, m, ds[i])
			}
		}
		if got := Intersect(ds[0], ds[1]).Accepts(w); got != (in[0] && in[1]) {
			t.Fatalf("Intersect(%q, %q).Accepts(%q) = %v, Matchers %v and %v", src1, src2, w, got, in[0], in[1])
		}
	})
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
				if w, ok := regex.RandomWord(e1, r); ok && !ref.Matches(e2, w) {
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
				if !ref.Matches(e, w) {
					t.Errorf("witness %v for %v not in %q", w, c.es, e)
				}
			}
		}
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
		if !NewMatcher(regex.MustParse(s)).Deterministic() {
			t.Errorf("%q should be deterministic", s)
		}
	}
	for _, s := range nondet {
		if NewMatcher(regex.MustParse(s)).Deterministic() {
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
		if d.NumStates() > bound {
			t.Fatalf("DFA for %d-ORE %q has %d states > bound %d", k, e, d.NumStates(), bound)
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
// Matcher of the result and its intersection witnesses.
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
			if got := accepts(NewMatcher(mapSymbols(base, c.rename)), c.word); got != c.accepts {
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
