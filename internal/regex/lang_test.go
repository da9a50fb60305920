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
