package ref

import (
	"strings"
	"testing"
	"time"

	"repro/internal/regex"
)

// Regression test for the exponential derivative blowup surfaced by the
// differential oracle (rwdfuzz -oracle regex-membership -replay 34):
// without union similarity (ACI dedup), successive word derivatives of
// nested iteration operators duplicated alternatives at every step and a
// single 16-symbol membership test took tens of seconds.
func TestMatchesDerivativeNoBlowup(t *testing.T) {
	e := regex.MustParse("((a (a* c* c? a)*)+ + (b* (c* a? c c?)* b+)+)*")
	words := [][]string{
		{"a", "a", "c", "a", "a", "c", "a", "a", "c", "a", "a", "c", "a", "a", "c", "a"},
		{"b", "c", "c", "b", "b", "c", "c", "b", "b", "c", "c", "b", "b", "c", "c", "b"},
	}
	for _, w := range words {
		start := time.Now()
		got := MatchesDerivative(e, w)
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("MatchesDerivative took %v on a 16-symbol word (derivative blowup)", d)
		}
		if want := Matches(e, w); got != want {
			t.Fatalf("MatchesDerivative=%v but Matches=%v on %v", got, want, w)
		}
	}
}

// TestUnionSimilarPreservesLanguage pins the ACI dedup itself: duplicate
// and nested-union alternatives collapse without changing the language.
func TestUnionSimilarPreservesLanguage(t *testing.T) {
	a, b := regex.NewSymbol("a"), regex.NewSymbol("b")
	u := unionSimilar([]*regex.Expr{a.Clone(), regex.NewUnion(a.Clone(), b.Clone()), a.Clone()})
	if u.Kind != regex.Union || len(u.Subs) != 2 {
		t.Fatalf("unionSimilar kept duplicates: %s", u)
	}
	for _, w := range [][]string{{"a"}, {"b"}, {"a", "b"}, {}} {
		if MatchesDerivative(u, w) != Matches(regex.NewUnion(a, b), w) {
			t.Fatalf("unionSimilar changed the language on %v", w)
		}
	}
}

func TestDerivativeMatches(t *testing.T) {
	cases := []struct {
		re   string
		word string // space-separated labels, "" = ε
		want bool
	}{
		{"a", "a", true},
		{"a", "b", false},
		{"a", "", false},
		{"a*", "", true},
		{"a*", "a a a", true},
		{"(a + b)* a", "b b a", true},
		{"(a + b)* a", "a b", false},
		{"b* a (b* a)*", "b b a b a", true},
		{"b* a (b* a)*", "b b", false},
		{"name birthplace", "name birthplace", true},
		{"city state country?", "city state", true},
		{"city state country?", "city state country", true},
		{"city state country?", "city country", false},
		{"(a b)+", "a b a b", true},
		{"(a b)+", "", false},
		{"a? a? a?", "a a", true},
		{"a? a? a?", "a a a a", false},
	}
	for _, c := range cases {
		var w []string
		if c.word != "" {
			w = strings.Fields(c.word)
		}
		if got := Matches(regex.MustParse(c.re), w); got != c.want {
			t.Errorf("Matches(%q, %q) = %v, want %v", c.re, c.word, got, c.want)
		}
	}
}
