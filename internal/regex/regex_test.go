package regex

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String() output
	}{
		{"a", "a"},
		{"a b", "a b"},
		{"a + b", "a + b"},
		{"a|b", "a + b"},
		{"a+", "a+"},
		{"a+ b", "a+ b"},
		{"a + b + c", "a + b + c"},
		{"(a + b)* a", "(a + b)* a"},
		{"b* a (b* a)*", "b* a (b* a)*"},
		{"a?", "a?"},
		{"a* a b b*", "a* a b b*"}, // the paper's a*abb* (labels here are multi-character, so spaces separate)
		{"<eps>", "<eps>"},
		{"<empty>", "<empty>"},
		{"(a)", "a"},
		{"((a + b))", "a + b"},
		{"name birthplace", "name birthplace"},
		{"city state country?", "city state country?"},
		{"a**", "(a*)*"},
		{"(a + b)?", "(a + b)?"},
		{"a+b", "a+ b"}, // postfix plus binds without space
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "(", ")", "a + ", "*", "<bogus>", "a & b", "(a", "<eps"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	g := DefaultGen([]string{"a", "b", "c", "person", "name"})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		e := g.Random(r)
		s := e.String()
		f, err := Parse(s)
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", s, err)
		}
		if !e.Equal(f) {
			t.Fatalf("round trip of %q changed expression: got %q", s, f.String())
		}
	}
}

func TestParseDTDContent(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"(a, b)", "a b"},
		{"(a | b)", "a + b"},
		{"(a, b*, (c | d)+)", "a b* (c + d)+"},
		{"EMPTY", "<eps>"},
		{"(#PCDATA)", "<eps>"},
		{"(#PCDATA | em | strong)*", "(<eps> + em + strong)*"},
		{"(name, birthplace)", "name birthplace"},
		{"(city, state, country?)", "city state country?"},
		{"person*", "person*"},
	}
	for _, c := range cases {
		e, err := ParseDTDContent(c.in, nil)
		if err != nil {
			t.Fatalf("ParseDTDContent(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("ParseDTDContent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	any, err := ParseDTDContent("ANY", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := any.String(); got != "(a + b)*" {
		t.Errorf("ANY = %q", got)
	}
	for _, in := range []string{"(a,)", "(a | )", "(a", "a))", "(a % b)"} {
		if _, err := ParseDTDContent(in, nil); err == nil {
			t.Errorf("ParseDTDContent(%q): expected error", in)
		}
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"<eps>", true},
		{"<empty>", false},
		{"a", false},
		{"a*", true},
		{"a+", false},
		{"a?", true},
		{"a b", false},
		{"a* b*", true},
		{"a + b*", true},
		{"(a b)+", false},
		{"(a?)+", true},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Nullable(); got != c.want {
			t.Errorf("Nullable(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsEmptyLanguage(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"<empty>", true},
		{"<eps>", false},
		{"a <empty>", true},
		{"a + <empty>", false},
		{"<empty>*", false},
		{"<empty>+", true},
		{"(<empty> + <empty>)", true},
	}
	for _, c := range cases {
		if got := MustParse(c.in).IsEmptyLanguage(); got != c.want {
			t.Errorf("IsEmptyLanguage(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRestrict checks Restrict on hand-picked cases; the differential
// test and fuzz target in internal/automata check it against Glushkov
// automata.
func TestRestrict(t *testing.T) {
	cases := []struct {
		in     string
		keep   string // the kept labels, space-separated; "*" keeps every label
		useful []string
		empty  bool
	}{
		{"(a + b <empty>)* c", "*", []string{"a", "c"}, false},
		{"(a b)* c", "a c", []string{"c"}, false},
		{"a (b + c)", "a b", []string{"a", "b"}, false},
		{"a b+ + c", "a c", []string{"c"}, false},
		{"a? b", "a", nil, true},
		{"(a + <empty>)+ b?", "a b", []string{"a", "b"}, false},
		{"<empty>*", "", nil, false},
	}
	for _, c := range cases {
		keep := func(a string) bool { return c.keep == "*" || slices.Contains(strings.Fields(c.keep), a) }
		useful, empty := MustParse(c.in).Restrict(keep)
		if !slices.Equal(useful, c.useful) || empty != c.empty {
			t.Errorf("Restrict(%q, {%s}) = %v, %v; want %v, %v", c.in, c.keep, useful, empty, c.useful, c.empty)
		}
	}
}

func TestSizeDepthOccurrences(t *testing.T) {
	e := MustParse("(a + b)* a (a + b)")
	if got := e.MaxOccurrences(); got != 3 {
		t.Errorf("MaxOccurrences = %d, want 3", got)
	}
	if got := e.ParseDepth(); got != 4 {
		// concat > star > union > symbol
		t.Errorf("ParseDepth = %d, want 4", got)
	}
	occ := e.Occurrences()
	if occ["a"] != 3 || occ["b"] != 2 {
		t.Errorf("Occurrences = %v", occ)
	}
	if got := strings.Join(e.Alphabet(), ","); got != "a,b" {
		t.Errorf("Alphabet = %q", got)
	}
	if e.Size() != 9 {
		// union(2) star union(2) concat + 3 symbols in star-union + a + 2 in union = count nodes:
		// concat, star, union(a,b), a, b, a, union(a,b), a, b = 9
		t.Errorf("Size = %d, want 9", e.Size())
	}
}

func TestSimplifyIdentities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a <eps> b", "a b"},
		{"a <empty> b", "<empty>"},
		{"a + <empty>", "a"},
		{"(a?)?", "a?"},
		{"(a*)*", "a*"},
		{"(a*)+", "a*"},
		{"(a+)+", "a+"},
		{"(a?)*", "a*"},
		{"<eps> + a", "a?"},
		{"<eps> + a*", "a*"},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Simplify().String(); got != c.want {
			t.Errorf("Simplify(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCloneEqualQuick(t *testing.T) {
	g := DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		_ = seed
		e := g.Random(r)
		return e.Equal(e.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcatUnionFlattening(t *testing.T) {
	e := NewConcat(NewSymbol("a"), NewConcat(NewSymbol("b"), NewSymbol("c")))
	if len(e.Subs) != 3 {
		t.Errorf("NewConcat did not flatten: %d children", len(e.Subs))
	}
	u := NewUnion(NewSymbol("a"), NewUnion(NewSymbol("b"), NewSymbol("c")))
	if len(u.Subs) != 3 {
		t.Errorf("NewUnion did not flatten: %d children", len(u.Subs))
	}
	if NewConcat().Kind != Epsilon {
		t.Error("empty concat should be ε")
	}
	if NewUnion().Kind != Empty {
		t.Error("empty union should be ∅")
	}
}
