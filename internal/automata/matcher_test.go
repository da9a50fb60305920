package automata

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/regex"
)

// matcherVerdicts returns the verdicts on w of the Matcher compiled from
// the Glushkov automaton of e, the Matcher compiled from its determinized
// DFA (so always deterministic), the Glushkov NFA itself, and the DFA.
func matcherVerdicts(e *regex.Expr, w []string) [4]bool {
	n := Glushkov(e)
	d := Determinize(n)
	return [4]bool{
		NewMatcher(n).Accepts(w),
		NewMatcher(d.ToNFA()).Accepts(w),
		n.Accepts(w),
		d.Accepts(w),
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
	}
	for _, c := range cases {
		n := Glushkov(regex.MustParse(c.re))
		m := NewMatcher(n)
		if m.Deterministic() != c.det || m.Deterministic() != n.IsDeterministic() {
			t.Fatalf("%q: Deterministic() = %v, want %v", c.re, m.Deterministic(), c.det)
		}
		for _, w := range words(c.yes...) {
			if !m.Accepts(w) {
				t.Errorf("Matcher(%q) rejects %v", c.re, w)
			}
		}
		for _, w := range words(c.no...) {
			if m.Accepts(w) {
				t.Errorf("Matcher(%q) accepts %v", c.re, w)
			}
		}
	}
}

// TestMatcherAgreesWithAutomata checks matchers of deterministic and
// nondeterministic automata against the NFA and the DFA on random
// expressions, some of them too large for an eager
// subset construction to be the reference (those compare to the NFA only).
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
			if n.NumStates > 16 {
				if got, want := NewMatcher(n).Accepts(w), n.Accepts(w); got != want {
					t.Fatalf("e=%s w=%v: Matcher=%v NFA=%v", e, w, got, want)
				}
				continue
			}
			if v := matcherVerdicts(e, w); v[0] != v[2] || v[1] != v[2] || v[3] != v[2] {
				t.Fatalf("e=%s w=%v: Matcher=%v DFA-Matcher=%v NFA=%v DFA=%v", e, w, v[0], v[1], v[2], v[3])
			}
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
	m := NewMatcher(n)
	if m.Deterministic() || n.NumStates <= 64 {
		t.Fatalf("want a nondeterministic automaton with more than 64 states, got %d states", n.NumStates)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		w, ok := regex.RandomWord(e, r)
		if !ok {
			t.Fatal("empty language")
		}
		if !m.Accepts(w) {
			t.Fatalf("rejects its own word %v", w)
		}
		w[r.Intn(len(w))] = "c"
		if m.Accepts(w) != n.Accepts(w) {
			t.Fatalf("disagrees with the NFA on %v", w)
		}
	}
}

// TestMatcherSizeLinear pins the Matcher's size to the transitions of its
// NFA: a concatenation of 20000 distinct symbols has 20001 states and
// 20000 transitions, and a states × labels table of it would take 1.6 GB.
func TestMatcherSizeLinear(t *testing.T) {
	const k = 20000
	syms := make([]string, k)
	for i := range syms {
		syms[i] = fmt.Sprintf("s%d", i)
	}
	n := Glushkov(regex.MustParse(strings.Join(syms, " ")))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMatcher(n)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 2<<20 {
		t.Fatalf("NewMatcher allocated %d bytes for %d transitions, want < 2 MiB", bytes, k)
	}
	if !m.Deterministic() || !m.Accepts(syms) {
		t.Fatal("rejects the concatenation's only word")
	}
	if m.Accepts(syms[1:]) || m.Accepts(append(syms[:k-1:k-1], "s0")) {
		t.Fatal("accepts a word outside the language")
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Accepts(syms) }); allocs != 0 {
		t.Fatalf("Accepts on a deterministic matcher allocated %v times", allocs)
	}
}

// BenchmarkMatcher times Accepts on a deterministic and a
// nondeterministic expression of the size decide-hot sends.
func BenchmarkMatcher(b *testing.B) {
	for _, c := range []struct{ name, re, word string }{
		{"deterministic", "b* a (b* a)* c? (d + e)*", "b a b b a a c d e d"},
		{"nondeterministic", "(a (b + c)* d?)+ (a + b)* c", "a b c d a c"},
	} {
		m := NewMatcher(Glushkov(regex.MustParse(c.re)))
		w := strings.Fields(c.word)
		if !m.Accepts(w) {
			b.Fatalf("%s rejects %v", c.re, w)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matcherSink = m.Accepts(w)
			}
		})
	}
}

// matcherSink keeps BenchmarkMatcher's calls from being optimized away.
var matcherSink bool

// FuzzMatcher checks the Matcher against the Glushkov NFA and the
// determinized DFA on arbitrary expression/word texts, through both the
// Glushkov matcher and the DFA's matcher.
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
		if v := matcherVerdicts(e, w); v[0] != v[2] || v[1] != v[2] || v[3] != v[2] {
			t.Fatalf("e=%s w=%q: Matcher=%v DFA-Matcher=%v NFA=%v DFA=%v", e, w, v[0], v[1], v[2], v[3])
		}
	})
}
