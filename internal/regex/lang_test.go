package regex_test

import (
	"math/rand"
	"testing"

	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

// These tests check regex's generators and rewrites against the
// reference matcher, which lives in a package that imports regex.

func TestSimplifyPreservesMembership(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		e := g.Random(r)
		s := e.Simplify()
		// Sample words from both and cross-check membership.
		for j := 0; j < 5; j++ {
			if w, ok := regex.RandomWord(e, r); ok {
				if !ref.Matches(s, w) {
					t.Fatalf("Simplify(%q) = %q rejects %v from original", e, s, w)
				}
			}
			if w, ok := regex.RandomWord(s, r); ok {
				if !ref.Matches(e, w) {
					t.Fatalf("original %q rejects %v from Simplify = %q", e, w, s)
				}
			}
		}
	}
}

func TestRandomWordInLanguage(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b"})
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		e := g.Random(r)
		w, ok := regex.RandomWord(e, r)
		if !ok {
			continue
		}
		if !ref.Matches(e, w) {
			t.Fatalf("regex.RandomWord(%q) produced %v not in language", e, w)
		}
	}
}

// TestParseDTDContentMixedKeepsEpsilon pins the syntax of mixed content:
// each #PCDATA member stays in its union as ε, so the model prints with
// "<eps>", while a starred model's language is its element part's.
func TestParseDTDContentMixedKeepsEpsilon(t *testing.T) {
	for _, c := range []struct{ in, want, elements string }{
		{"(#PCDATA | a | b)*", "(<eps> + a + b)*", "(a + b)*"},
		{"(#PCDATA|a)*", "(<eps> + a)*", "a*"},
		{"(a | #PCDATA | b)*", "(a + <eps> + b)*", "(a + b)*"},
		{"(#PCDATA | a)", "<eps> + a", "a?"},
	} {
		e, err := regex.ParseDTDContent(c.in, nil)
		if err != nil {
			t.Fatalf("ParseDTDContent(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("ParseDTDContent(%q) = %q, want %q", c.in, got, c.want)
		}
		elements := regex.MustParse(c.elements)
		sub, ok1 := ref.Contains(e, elements)
		sup, ok2 := ref.Contains(elements, e)
		if !ok1 || !ok2 || !sub || !sup {
			t.Errorf("L(%q) ≠ L(%q)", c.want, c.elements)
		}
	}
}
