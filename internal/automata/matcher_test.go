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

// tableConflicts returns the conflicts of e's Glushkov automaton read
// off the follow rows lowerExpr writes, in the format checkMatcher
// compares: for each state in order, and each label in sorted order, the
// sorted successors of the state on that label, where there are two or
// more.
func tableConflicts(e *regex.Expr) []string {
	c, syms := lowerExpr(e, new(side))
	alpha := alphabetOf(syms)
	var out []string
	for q := 0; q < c.numStates; q++ {
		row := c.followRow(q)
		for _, a := range alpha {
			var succ []int32
			for p := row.Next(0); p >= 0; p = row.Next(p + 1) {
				if syms[p-1] == a {
					succ = append(succ, int32(p))
				}
			}
			if len(succ) > 1 {
				out = append(out, fmt.Sprint(q, succ))
			}
		}
	}
	return out
}

// checkMatcher compares the Matcher of e with the follow rows of
// lowerExpr on determinism and on its conflicts (states with two
// successors on one label), with regex.Matches on w, and, when the
// automaton has at most maxDFAStates states, with the DFA of the subset
// construction on w. The Matcher and the follow rows share only the
// Glushkov visit, and regex.Matches shares none of it.
func checkMatcher(t *testing.T, e *regex.Expr, w []string, maxDFAStates int) {
	t.Helper()
	m, tables := NewMatcher(e), tableConflicts(e)
	if got, want := m.Deterministic(), len(tables) == 0; got != want {
		t.Fatalf("e=%s: Deterministic()=%v, follow rows deterministic=%v", e, got, want)
	}
	var conflicts []string
	m.Conflicts(func(q int32, run []int32) bool {
		conflicts = append(conflicts, fmt.Sprint(q, run))
		return true
	})
	if !slices.Equal(conflicts, tables) {
		t.Fatalf("e=%s: Conflicts %v, follow rows %v", e, conflicts, tables)
	}
	got, want := accepts(m, w), regex.Matches(e, w)
	if got != want {
		t.Fatalf("e=%s w=%q: Matcher=%v Matches=%v", e, w, got, want)
	}
	if numStates(e) <= maxDFAStates {
		d, _ := determinizeCtx(context.Background(), m)
		if dfa := d.Accepts(w); dfa != want {
			t.Fatalf("e=%s w=%q: Matcher=%v Matches=%v DFA=%v", e, w, got, want, dfa)
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
		if m.Deterministic() != c.det {
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
// nondeterministic expressions with checkMatcher on random expressions,
// verdicts and determinism both, some of them too large for an eager
// subset construction to be the reference (those skip the DFA).
func TestMatcherAgreesWithAutomata(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(7))
	var det, nondet int
	for i := 0; i < 400; i++ {
		e := g.Random(r)
		if NewMatcher(e).Deterministic() {
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
	m := NewMatcher(e)
	if m.Deterministic() || numStates(e) <= 64 {
		t.Fatalf("want a nondeterministic automaton with more than 64 states, got %d states", numStates(e))
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
		if accepts(m, w) != regex.Matches(e, w) {
			t.Fatalf("disagrees with regex.Matches on %v", w)
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
// labels; expanding them into a transition table takes hundreds of MB
// at n = 4,000.
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

// FuzzMatcher runs checkMatcher on arbitrary expression/word texts.
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
