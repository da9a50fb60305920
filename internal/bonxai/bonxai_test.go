package bonxai

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/edtd"
	"repro/internal/regex"
	"repro/internal/tree"
)

func TestParsePattern(t *testing.T) {
	cases := []struct {
		in    string
		steps int
	}{
		{"a", 1},
		{"//b//h", 2},
		{"/a/b", 2},
		{"/a//b/c", 3},
		{"//x", 1},
		{"a/*/b", 3},
	}
	for _, c := range cases {
		p, err := ParsePattern(c.in)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", c.in, err)
		}
		if len(p.Steps) != c.steps {
			t.Errorf("ParsePattern(%q): %d steps, want %d", c.in, len(p.Steps), c.steps)
		}
	}
	for _, bad := range []string{"", "/", "//", "a//", "a/", "a///b"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q): expected error", bad)
		}
	}
}

func TestPatternMatches(t *testing.T) {
	cases := []struct {
		pat  string
		path []string
		want bool
	}{
		{"a", []string{"a"}, true},
		{"a", []string{"x", "a"}, true},
		{"a", []string{"a", "x"}, false}, // pattern must end at the node
		{"//b//h", []string{"a", "b", "d", "h"}, true},
		{"//b//h", []string{"a", "c", "d", "h"}, false},
		{"//b//h", []string{"b", "h"}, true},
		{"/a/b", []string{"a", "b"}, true},
		{"/a/b", []string{"x", "a", "b"}, false},
		{"/a//c", []string{"a", "b", "c"}, true},
		{"a/*/c", []string{"a", "x", "c"}, true},
		{"a/*/c", []string{"a", "c"}, false},
		{"//h", []string{"a", "b", "d", "h"}, true},
	}
	for _, c := range cases {
		if got := MustParsePattern(c.pat).Matches(c.path); got != c.want {
			t.Errorf("Pattern(%q).Matches(%v) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}

func TestFigure2bValidation(t *testing.T) {
	s := Figure2b()
	good := []string{
		"a(b(e, d(g, h(j), i), f))",
		"a(c(e, d(g, h(k), i), f))",
	}
	bad := []string{
		"a(b(e, d(g, h(k), i), f))", // k under b
		"a(c(e, d(g, h(j), i), f))", // j under c
		"a(b(e, f))",
		"b(e, d(g, h(j), i), f)", // root must be a
		"a(b(e, d(g, h(j), i), f), b(e, d(g, h(j), i), f))",
	}
	for _, str := range good {
		if err := s.Validate(tree.MustParse(str)); err != nil {
			t.Errorf("%q should be valid: %v", str, err)
		}
	}
	for _, str := range bad {
		if s.Valid(tree.MustParse(str)) {
			t.Errorf("%q should be invalid", str)
		}
	}
}

func TestUnselectedNodeRejected(t *testing.T) {
	s := (&Schema{}).Add("a", "x?")
	// node labeled x is selected by no rule → condition (1) fails
	if s.Valid(tree.MustParse("a(x)")) {
		t.Error("tree with unselected node accepted")
	}
	if !s.Valid(tree.MustParse("a")) {
		t.Error("bare a should be valid")
	}
}

// figure2aEDTD is the hand-written EDTD of Figure 2a, the compilation
// target the paper pairs with Figure 2b.
func figure2aEDTD() *edtd.EDTD {
	return edtd.New().
		AddType("a", "a", regex.MustParse("b + c")).
		AddType("b", "b", regex.MustParse("e d1 f")).
		AddType("c", "c", regex.MustParse("e d2 f")).
		AddType("d1", "d", regex.MustParse("g h1 i")).
		AddType("d2", "d", regex.MustParse("g h2 i")).
		AddType("h1", "h", regex.MustParse("j")).
		AddType("h2", "h", regex.MustParse("k")).
		AddType("e", "e", regex.NewEpsilon()).
		AddType("f", "f", regex.NewEpsilon()).
		AddType("g", "g", regex.NewEpsilon()).
		AddType("i", "i", regex.NewEpsilon()).
		AddType("j", "j", regex.NewEpsilon()).
		AddType("k", "k", regex.NewEpsilon()).
		AddStart("a")
}

func TestFigure2Equivalence(t *testing.T) {
	// The paper presents Figure 2a and Figure 2b as equivalent schemas. We
	// verify on (i) the canonical documents and (ii) random trees over the
	// alphabet that the BonXai schema, the hand-written EDTD, and the
	// compiled EDTD agree.
	schema := Figure2b()
	hand := figure2aEDTD()
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"}
	compiled := schema.ToEDTD(alphabet)
	if !compiled.IsSingleType() {
		t.Error("compiled EDTD must be single-type")
	}
	r := rand.New(rand.NewSource(6))
	var gen func(depth int) *tree.Node
	gen = func(depth int) *tree.Node {
		n := tree.New(alphabet[r.Intn(len(alphabet))])
		if depth > 0 {
			for i := 0; i < r.Intn(4); i++ {
				n.Add(gen(depth - 1))
			}
		}
		return n
	}
	fixed := []*tree.Node{
		tree.MustParse("a(b(e, d(g, h(j), i), f))"),
		tree.MustParse("a(c(e, d(g, h(k), i), f))"),
		tree.MustParse("a(b(e, d(g, h(k), i), f))"),
		tree.MustParse("a(c(e, d(g, h(j), i), f))"),
		tree.MustParse("a"),
	}
	trees := fixed
	for i := 0; i < 150; i++ {
		trees = append(trees, gen(4))
	}
	for _, tr := range trees {
		want := schema.Valid(tr)
		if got := hand.Valid(tr); got != want {
			t.Fatalf("hand EDTD %v, BonXai %v on %v", got, want, tr)
		}
		if got := compiled.Valid(tr); got != want {
			t.Fatalf("compiled EDTD %v, BonXai %v on %v", got, want, tr)
		}
	}
}

func TestFromEDTDFigure2Reverse(t *testing.T) {
	// The reverse Figure 2 direction: Figure 2a compiled into a
	// pattern-based schema must agree with Figure 2b on arbitrary trees.
	schema, ok := FromEDTD(figure2aEDTD(), 3)
	if !ok {
		t.Fatal("Figure 2a should convert (context depth 2)")
	}
	ref := Figure2b()
	hand := figure2aEDTD()
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"}
	r := rand.New(rand.NewSource(17))
	var gen func(depth int) *tree.Node
	gen = func(depth int) *tree.Node {
		n := tree.New(alphabet[r.Intn(len(alphabet))])
		if depth > 0 {
			for i := 0; i < r.Intn(4); i++ {
				n.Add(gen(depth - 1))
			}
		}
		return n
	}
	trees := []*tree.Node{
		tree.MustParse("a(b(e, d(g, h(j), i), f))"),
		tree.MustParse("a(c(e, d(g, h(k), i), f))"),
		tree.MustParse("a(b(e, d(g, h(k), i), f))"),
		tree.MustParse("a"),
	}
	for i := 0; i < 150; i++ {
		trees = append(trees, gen(4))
	}
	for _, tr := range trees {
		want := hand.Valid(tr)
		if got := schema.Valid(tr); got != want {
			t.Fatalf("FromEDTD schema disagrees with the EDTD on %v: got %v want %v\nschema:\n%s", tr, got, want, schema)
		}
		if got := ref.Valid(tr); got != want {
			t.Fatalf("reference Figure 2b disagrees on %v", tr)
		}
	}
}

func TestFromEDTDDTDLike(t *testing.T) {
	// A context-independent EDTD converts to bare-label rules.
	d := edtd.New().
		AddType("r", "r", regex.MustParse("x*")).
		AddType("x", "x", regex.MustParse("y?")).
		AddType("y", "y", regex.NewEpsilon()).
		AddStart("r")
	schema, ok := FromEDTD(d, 3)
	if !ok {
		t.Fatal("DTD-like EDTD should convert")
	}
	for _, rule := range schema.Rules {
		if len(rule.Pattern.Steps) != 1 {
			t.Errorf("expected bare-label rules, got %s", rule.Pattern)
		}
	}
	for _, s := range []string{"r", "r(x, x(y))", "r(x(y), x)"} {
		if !schema.Valid(tree.MustParse(s)) {
			t.Errorf("%s should be valid", s)
		}
	}
	if schema.Valid(tree.MustParse("r(y)")) {
		t.Error("r(y) should be invalid")
	}
}

func TestFromEDTDRejectsUnboundedContext(t *testing.T) {
	// Example 4.11-style EDTDs (same-label types under identical contexts)
	// cannot be separated by any ancestor context.
	d := edtd.New().
		AddType("persons", "persons", regex.MustParse("person*")).
		AddType("person", "person", regex.MustParse("name (bUS + bIntl)")).
		AddType("name", "name", regex.NewEpsilon()).
		AddType("bUS", "birthplace", regex.MustParse("city?")).
		AddType("bIntl", "birthplace", regex.MustParse("city")).
		AddType("city", "city", regex.NewEpsilon()).
		AddStart("persons")
	if d.IsSingleType() {
		t.Skip("construction accidentally single-type")
	}
	if _, ok := FromEDTD(d, 3); ok {
		t.Error("non-single-type EDTD must not convert")
	}
}

// TestToEDTDDeterministic compiles a schema whose rules intersect, so
// content models come from intersection DFAs: every compilation must
// print the same EDTD.
func TestToEDTDDeterministic(t *testing.T) {
	s := (&Schema{}).
		Add("a", "(b + c + d)*").
		Add("//b", "(c + d) (c + d)*").
		Add("/a/b", "(c + d + e)*").
		Add("//c", "c*").
		Add("//d", "d*").
		Root("a")
	alphabet := []string{"a", "b", "c", "d"}
	want := s.ToEDTD(alphabet).String()
	for i := 0; i < 50; i++ {
		if got := s.ToEDTD(alphabet).String(); got != want {
			t.Fatalf("ToEDTD printed\n%s\nthen\n%s", want, got)
		}
	}
}

// TestToEDTDKeepsCallerAlphabet checks that ToEDTD sorts a copy of its
// alphabet: the caller's slice keeps its order, and an unsorted
// alphabet compiles to the same EDTD as the sorted one.
func TestToEDTDKeepsCallerAlphabet(t *testing.T) {
	s := (&Schema{}).
		Add("a", "(b + c)*").
		Add("//b", "c?").
		Add("//c", "<eps>").
		Root("a")
	want := s.ToEDTD([]string{"a", "b", "c"}).String()
	alphabet := []string{"c", "a", "b"}
	if got := s.ToEDTD(alphabet).String(); got != want {
		t.Fatalf("ToEDTD on an unsorted alphabet printed\n%s\nwant\n%s", got, want)
	}
	if !slices.Equal(alphabet, []string{"c", "a", "b"}) {
		t.Fatalf("ToEDTD reordered the caller's alphabet to %q", alphabet)
	}
}
