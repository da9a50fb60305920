package ref

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/regex"
)

func TestContainsKnownAnswers(t *testing.T) {
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
		{"a? b?", "(a + b)?", false},
		{"a b", "a", false},
		{"<empty>", "a", true},
		{"a", "<empty>", false},
		{"a <empty> b", "c", true},
		{"<eps>", "a*", true},
		{"a", "b", false},
		{"(a b)*", "(a + b)*", true},
		{"(a + b)*", "(a b)*", false},
		{"a* a b b*", "a* a b b*", true},
	}
	for _, c := range cases {
		got, decided := Contains(regex.MustParse(c.e1), regex.MustParse(c.e2))
		if !decided || got != c.want {
			t.Errorf("Contains(%q, %q) = %v, decided %v; want %v", c.e1, c.e2, got, decided, c.want)
		}
	}
}

// blowup is (a|b)* a (a|b)^k, whose minimal DFA has 2^(k+1) states.
func blowup(k int) *regex.Expr {
	return regex.MustParse("(a|b)* a" + strings.Repeat(" (a|b)", k))
}

// TestContainsBlowupFamily decides the two directions against (a|b)*
// and self-containment, which visits every derivative of the family.
func TestContainsBlowupFamily(t *testing.T) {
	all := regex.MustParse("(a|b)*")
	for k := 1; k <= 8; k++ {
		e := blowup(k)
		for _, c := range []struct {
			e1, e2 *regex.Expr
			want   bool
		}{{e, all, true}, {all, e, false}, {e, e, true}} {
			if got, decided := Contains(c.e1, c.e2); !decided || got != c.want {
				t.Fatalf("k=%d: Contains(%s, %s) = %v, decided %v; want %v", k, c.e1, c.e2, got, decided, c.want)
			}
		}
	}
}

// TestContainsUndecidedPastBudget checks that the search gives up:
// blowup(13) has 2^14 derivatives, twice the pair budget.
func TestContainsUndecidedPastBudget(t *testing.T) {
	if _, decided := Contains(blowup(13), regex.MustParse("(a|b)*")); decided {
		t.Fatal("decided past the pair budget")
	}
}

// TestContainsAgreesWithSampledWords checks true verdicts against
// sampled words of L(e1) and false ones by a word search, on seeded
// random pairs.
func TestContainsAgreesWithSampledWords(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := regex.DefaultGen([]string{"a", "b"})
	g.MaxDepth = 3
	for i := 0; i < 300; i++ {
		e1, e2 := g.Random(r), g.Random(r)
		got, decided := Contains(e1, e2)
		if !decided {
			t.Fatalf("Contains(%s, %s) undecided", e1, e2)
		}
		if got {
			for j := 0; j < 10; j++ {
				if w, ok := regex.RandomWord(e1, r); ok && !Matches(e2, w) {
					t.Fatalf("Contains(%s, %s) = true, but %q is in L(e1) only", e1, e2, w)
				}
			}
		} else if w, ok := shortestOnlyIn(e1, e2, 10); !ok {
			t.Fatalf("Contains(%s, %s) = false, but no word of length <= 10 separates them", e1, e2)
		} else if !Matches(e1, w) || Matches(e2, w) {
			t.Fatalf("witness %q does not separate %s from %s", w, e1, e2)
		}
	}
}

// shortestOnlyIn returns a word of length at most n over {a, b} in
// L(e1) \ L(e2).
func shortestOnlyIn(e1, e2 *regex.Expr, n int) ([]string, bool) {
	words := [][]string{nil}
	for len(words) > 0 {
		w := words[0]
		words = words[1:]
		if Matches(e1, w) && !Matches(e2, w) {
			return w, true
		}
		if len(w) < n {
			for _, a := range []string{"a", "b"} {
				words = append(words, append(w[:len(w):len(w)], a))
			}
		}
	}
	return nil, false
}

// TestMatchesEmptyWordIsNullable ties the memoized matcher to the
// syntactic nullability predicate on generated expressions.
func TestMatchesEmptyWordIsNullable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := regex.DefaultGen([]string{"a", "b", "c"})
	for i := 0; i < 2000; i++ {
		e := g.Random(r)
		if Matches(e, nil) != e.Nullable() || MatchesDerivative(e, nil) != e.Nullable() {
			t.Fatalf("ε membership of %s disagrees with Nullable = %v", e, e.Nullable())
		}
	}
}

// TestPackageBoundary keeps this package a leaf that only the oracles
// use: its files import nothing but package regex and the standard
// library, and no program file outside internal/oracle imports it.
func TestPackageBoundary(t *testing.T) {
	const self = "repro/internal/oracle/ref"
	imports := func(path string) []string {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range f.Imports {
			p, _ := strconv.Unquote(s.Path.Value)
			out = append(out, p)
		}
		return out
	}
	isProgramFile := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !isProgramFile(e.Name()) {
			continue
		}
		for _, p := range imports(e.Name()) {
			std := !strings.HasPrefix(p, "repro/") && !strings.Contains(strings.Split(p, "/")[0], ".")
			if p != "repro/internal/regex" && !std {
				t.Errorf("%s imports %s; want only repro/internal/regex and the standard library", e.Name(), p)
			}
		}
	}
	root, oracleDir := filepath.Join("..", "..", ".."), filepath.Join("..", "..", "..", "internal", "oracle")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == oracleDir || path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isProgramFile(path) {
			return nil
		}
		for _, p := range imports(path) {
			if p == self {
				t.Errorf("%s imports %s; only internal/oracle may", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
