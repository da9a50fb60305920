package automata

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/regex"
)

// accepts is Accepts without a deadline.
func accepts(m *Matcher, w []string) bool {
	ok, err := m.Accepts(context.Background(), w)
	if err != nil {
		panic(err)
	}
	return ok
}

// checkMatcher compares the Matcher of e with the Glushkov NFA on w, on
// determinism and on its conflicts (states with two successors on one
// label), and, when the NFA has at most maxDFAStates states, with the
// determinized DFA on w. The Matcher and the NFA share only the Glushkov
// visit.
func checkMatcher(t *testing.T, e *regex.Expr, w []string, maxDFAStates int) {
	t.Helper()
	m, n := NewMatcher(e), Glushkov(e)
	if got, want := m.Deterministic(), n.IsDeterministic(); got != want {
		t.Fatalf("e=%s: Deterministic()=%v, NFA IsDeterministic()=%v", e, got, want)
	}
	var conflicts, nfaConflicts []string
	m.Conflicts(func(q int32, run []int32) bool {
		conflicts = append(conflicts, fmt.Sprint(q, run))
		return true
	})
	for q := range n.Trans {
		for _, a := range n.Alphabet {
			if succ := n.Trans[q][a]; len(succ) > 1 {
				nfaConflicts = append(nfaConflicts, fmt.Sprint(q, succ))
			}
		}
	}
	if !slices.Equal(conflicts, nfaConflicts) {
		t.Fatalf("e=%s: Conflicts %v, NFA %v", e, conflicts, nfaConflicts)
	}
	got, want := accepts(m, w), n.Accepts(w)
	if got != want {
		t.Fatalf("e=%s w=%q: Matcher=%v NFA=%v", e, w, got, want)
	}
	if n.NumStates <= maxDFAStates {
		if dfa := Determinize(n).Accepts(w); dfa != want {
			t.Fatalf("e=%s w=%q: Matcher=%v NFA=%v DFA=%v", e, w, got, want, dfa)
		}
	}
}

func TestMatcherCases(t *testing.T) {
	cases := []struct {
		re  string
		det bool
		yes []string
		no  []string
	}{
		{"b* a (b* a)*", true, []string{"a", "b a", "a b b a"}, []string{"", "b", "a b", "c"}},
		{"a?", true, []string{"", "a"}, []string{"a a", "b"}},
		{"<empty>", true, nil, []string{"", "a"}},
		{"<eps>", true, []string{""}, []string{"a"}},
		{"a <empty> b + c", true, []string{"c"}, []string{"a b", ""}},
		{"(a + b)* a", false, []string{"a", "b a", "a b a"}, []string{"", "b", "a b"}},
		{"(a + b)* a (a + b) (a + b)", false, []string{"a a a", "b a b b"}, []string{"a", "b b b", "a b a b"}},
		{"a a + a b", false, []string{"a a", "a b"}, []string{"a", "b b", "a a a"}},
		// Two products lead from a to a: one position, so deterministic.
		{"(a*)*", true, []string{"", "a", "a a"}, []string{"b"}},
		// From c, one product leads to a1 and b, another to a3.
		{"c (a + b)* a", false, []string{"c a", "c b a a"}, []string{"c", "c b", "a"}},
	}
	for _, c := range cases {
		e := regex.MustParse(c.re)
		m := NewMatcher(e)
		if m.Deterministic() != c.det || m.Deterministic() != Glushkov(e).IsDeterministic() {
			t.Fatalf("%q: Deterministic() = %v, want %v", c.re, m.Deterministic(), c.det)
		}
		for _, w := range words(c.yes...) {
			if !accepts(m, w) {
				t.Errorf("Matcher(%q) rejects %v", c.re, w)
			}
		}
		for _, w := range words(c.no...) {
			if accepts(m, w) {
				t.Errorf("Matcher(%q) accepts %v", c.re, w)
			}
		}
	}
}

// TestMatcherAgreesWithAutomata checks matchers of deterministic and
// nondeterministic expressions against the NFA and the DFA on random
// expressions, verdicts and determinism both, some of them too large for
// an eager subset construction to be the reference (those compare to the
// NFA only).
func TestMatcherAgreesWithAutomata(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(7))
	var det, nondet int
	for i := 0; i < 400; i++ {
		e := g.Random(r)
		n := Glushkov(e)
		if n.IsDeterministic() {
			det++
		} else {
			nondet++
		}
		for j := 0; j < 10; j++ {
			w := make([]string, r.Intn(8))
			for k := range w {
				w[k] = []string{"a", "b", "c", "d"}[r.Intn(4)]
			}
			if j < 4 {
				if s, ok := regex.RandomWord(e, r); ok {
					w = s
				}
			}
			checkMatcher(t, e, w, 16)
		}
	}
	if det == 0 || nondet == 0 {
		t.Fatalf("generator covered only one kind: %d deterministic, %d not", det, nondet)
	}
}

// TestMatcherLargeStateSet runs the simulation past its stack buffers.
func TestMatcherLargeStateSet(t *testing.T) {
	e := regex.MustParse(AntichainHardExpr(40))
	n := Glushkov(e)
	m := NewMatcher(e)
	if m.Deterministic() || n.NumStates <= 64 {
		t.Fatalf("want a nondeterministic automaton with more than 64 states, got %d states", n.NumStates)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		w, ok := regex.RandomWord(e, r)
		if !ok {
			t.Fatal("empty language")
		}
		if !accepts(m, w) {
			t.Fatalf("rejects its own word %v", w)
		}
		w[r.Intn(len(w))] = "c"
		if accepts(m, w) != n.Accepts(w) {
			t.Fatalf("disagrees with the NFA on %v", w)
		}
	}
}

// TestMatcherSizeLinear pins the Matcher's size to the length of its
// expression: a concatenation of 20000 distinct symbols has 20001
// states and 20000 transitions, and a states × labels table of it would
// take 1.6 GB.
func TestMatcherSizeLinear(t *testing.T) {
	const k = 20000
	syms := make([]string, k)
	for i := range syms {
		syms[i] = fmt.Sprintf("s%d", i)
	}
	e := regex.MustParse(strings.Join(syms, " "))
	var m *Matcher
	if bytes := allocated(func() { m = NewMatcher(e) }); bytes > 2<<20 {
		t.Fatalf("NewMatcher allocated %d bytes for %d transitions, want < 2 MiB", bytes, k)
	}
	if !m.Deterministic() || !accepts(m, syms) {
		t.Fatal("rejects the concatenation's only word")
	}
	if accepts(m, syms[1:]) || accepts(m, append(syms[:k-1:k-1], "s0")) {
		t.Fatal("accepts a word outside the language")
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(10, func() { m.Accepts(ctx, syms) }); allocs != 0 {
		t.Fatalf("Accepts on a deterministic matcher allocated %v times", allocs)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMatcherSizeDoubling pins linear growth on the families whose
// Glushkov automata are quadratic or long: doubling n may grow
// NewMatcher's allocation at most 2.5-fold. (a + … + a)* with n
// alternatives has n² transitions, and (x0 + … + xn)* as many with n
// labels; expanding them, as Glushkov does, takes hundreds of MB at
// n = 4,000.
func TestMatcherSizeDoubling(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		expr func(n int) string
	}{
		{"(a+…+a)*", 4000, func(n int) string { return "(" + strings.Repeat("a + ", n-1) + "a)*" }},
		{"(x0+…+xn)*", 4000, func(n int) string {
			alts := make([]string, n)
			for i := range alts {
				alts[i] = fmt.Sprintf("x%d", i)
			}
			return "(" + strings.Join(alts, " + ") + ")*"
		}},
		{"a a … a", 40000, func(n int) string { return strings.Repeat("a ", n) }},
	} {
		small, large := regex.MustParse(c.expr(c.n)), regex.MustParse(c.expr(2*c.n))
		NewMatcher(small)
		b1 := allocated(func() { NewMatcher(small) })
		b2 := allocated(func() { NewMatcher(large) })
		if float64(b2) > 2.5*float64(b1) {
			t.Errorf("%s: NewMatcher allocated %d bytes at n=%d and %d at n=%d, more than 2.5×", c.name, b1, c.n, b2, 2*c.n)
		}
		t.Logf("%s: %d bytes at n=%d, %d at n=%d", c.name, b1, c.n, b2, 2*c.n)
	}
}

// TestMatcherAcceptsCancels stops a long word on a wide nondeterministic
// expression, whose every step visits all 8,000 positions, at a canceled
// context, and checks a context already canceled before the first symbol.
func TestMatcherAcceptsCancels(t *testing.T) {
	m := NewMatcher(regex.MustParse("(" + strings.Repeat("a + ", 7999) + "a)*"))
	if m.Deterministic() {
		t.Fatal("(a + … + a)* is not deterministic")
	}
	word := make([]string, 1_000_000)
	for i := range word {
		word[i] = "a"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := m.Accepts(ctx, word); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Accepts = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Accepts returned %v after its deadline of 20ms", el)
	}
	if _, err := m.Accepts(ctx, word[:1]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Accepts of one symbol on an expired context = %v", err)
	}
	if ok, err := m.Accepts(ctx, nil); !ok || err != nil {
		t.Fatalf("Accepts of the empty word = %v, %v; it reads no symbol", ok, err)
	}
}

// TestMatcherStep checks the symbol-at-a-time interface against Accepts.
func TestMatcherStep(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		e := g.Random(r)
		m := NewMatcher(e)
		w := make([]string, r.Intn(6))
		for k := range w {
			w[k] = []string{"a", "b", "c", "d"}[r.Intn(4)]
		}
		set := m.Start()
		for _, a := range w {
			set = m.Step(set, a)
		}
		if got, want := m.AnyFinal(set), accepts(m, w); got != want {
			t.Fatalf("e=%s w=%q: Step=%v Accepts=%v", e, w, got, want)
		}
	}
}

// BenchmarkMatcher times Accepts on a deterministic and a
// nondeterministic expression of the size decide-hot sends.
func BenchmarkMatcher(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct{ name, re, word string }{
		{"deterministic", "b* a (b* a)* c? (d + e)*", "b a b b a a c d e d"},
		{"nondeterministic", "(a (b + c)* d?)+ (a + b)* c", "a b c d a c"},
	} {
		m := NewMatcher(regex.MustParse(c.re))
		w := strings.Fields(c.word)
		if !accepts(m, w) {
			b.Fatalf("%s rejects %v", c.re, w)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matcherSink, _ = m.Accepts(ctx, w)
			}
		})
	}
}

// matcherSink keeps BenchmarkMatcher's calls from being optimized away.
var matcherSink bool

// BenchmarkNewMatcher times NewMatcher on 200 seeded random depth-5
// expressions, the compile step of a cold membership request.
func BenchmarkNewMatcher(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	g := regex.DefaultGen([]string{"a", "b", "c", "d"})
	g.MaxDepth = 5
	exprs := make([]*regex.Expr, 200)
	for i := range exprs {
		exprs[i] = g.Random(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMatcher(exprs[i%len(exprs)])
	}
}

// FuzzMatcher checks the Matcher against the Glushkov NFA and the
// determinized DFA on arbitrary expression/word texts, and its
// Deterministic against the NFA's.
func FuzzMatcher(f *testing.F) {
	f.Add("b* a (b* a)*", "b a b a")
	f.Add("(a + b)* a (a + b)", "b a b")
	f.Add("a? a? a?", "")
	f.Add("(a b* + c)+", "a b b c")
	f.Add("a <empty> + <eps>", "a")
	f.Fuzz(func(t *testing.T, exprSrc, wordSrc string) {
		e, err := regex.Parse(exprSrc)
		if err != nil || e.Size() > 60 {
			t.Skip()
		}
		if positions, _ := measure(e); positions > 12 {
			t.Skip()
		}
		w := strings.Fields(wordSrc)
		if len(w) > 12 {
			w = w[:12]
		}
		checkMatcher(t, e, w, 13)
	})
}
