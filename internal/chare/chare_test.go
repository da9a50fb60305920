package chare

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

func TestParseClassification(t *testing.T) {
	cases := []struct {
		re       string
		isCHARE  bool
		fragment string
	}{
		// Paper examples from Section 4.2.2.
		{"a* a b b*", true, "RE(a,a*)"},
		{"(a + b)* a (a + b)?", true, "RE(a,(+a)?,(+a)*)"},
		{"(a* + b*)", false, ""},
		{"a b* a* a b", true, "RE(a,a*,a+)"}, // wait: no a+ here
		{"(a + b + c)*", true, "RE((+a)*)"},
		{"a (b + c)+ d?", true, "RE(a,a?,(+a)+)"},
		{"<eps>", true, "RE()"},
		{"(a b)*", false, ""},
		{"(a?) b", true, "RE(a,a?)"},
		{"((a + b)?)*", false, ""},
	}
	// fix the incorrect expectation above
	cases[3].fragment = "RE(a,a*)"
	for _, c := range cases {
		ch, ok := Parse(regex.MustParse(c.re))
		if ok != c.isCHARE {
			t.Errorf("IsCHARE(%q) = %v, want %v", c.re, ok, c.isCHARE)
			continue
		}
		if ok && ch.FragmentName() != c.fragment {
			t.Errorf("FragmentName(%q) = %q, want %q", c.re, ch.FragmentName(), c.fragment)
		}
	}
}

func TestExprRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		c := RandomCHARE(r, alpha, 1+r.Intn(6))
		e := c.Expr()
		c2, ok := Parse(e)
		if !ok {
			t.Fatalf("round trip of %q not recognized as CHARE", c)
		}
		if c.String() != c2.String() {
			t.Fatalf("round trip changed %q to %q", c, c2)
		}
	}
}

func TestContainsBlocks(t *testing.T) {
	cases := []struct {
		e1, e2 string
		want   bool
	}{
		{"a a+", "a+", true},
		{"a+", "a a+", false},
		{"a a a", "a a a", true},
		{"a a a", "a a", false},
		{"a b a", "a b a", true},
		{"a a+ b", "a+ b", true},
		{"a+ b+", "a+ b+", true},
		{"a b", "a+ b+", true},
		{"a+ b", "a b", false},
		{"a a b b", "a+ b+", true},
		{"a b", "b a", false},
	}
	for _, c := range cases {
		got, m := Contains(MustParse(c.e1), MustParse(c.e2))
		if m != MethodBlocks {
			t.Errorf("Contains(%q,%q) used %v, want blocks", c.e1, c.e2, m)
		}
		if got != c.want {
			t.Errorf("Contains(%q,%q) = %v, want %v", c.e1, c.e2, got, c.want)
		}
	}
}

func TestContainsFixedLen(t *testing.T) {
	cases := []struct {
		e1, e2 string
		want   bool
	}{
		{"(a + b) c", "(a + b + d) (c + d)", true},
		{"(a + b) c", "(a + d) c", false},
		{"a b", "(a + b) (a + b)", true},
		{"a b c", "(a + b) (a + b)", false},
	}
	for _, c := range cases {
		got, m := Contains(MustParse(c.e1), MustParse(c.e2))
		if m != MethodFixedLen {
			t.Errorf("Contains(%q,%q) used %v, want fixed-length", c.e1, c.e2, m)
		}
		if got != c.want {
			t.Errorf("Contains(%q,%q) = %v, want %v", c.e1, c.e2, got, c.want)
		}
	}
}

func TestContainsGreedy(t *testing.T) {
	cases := []struct {
		e1, e2 string
		want   bool
	}{
		{"a? b?", "a? b?", true},
		{"a* b*", "(a + b)*", true},
		{"(a + b)*", "a* b*", false},
		{"a? a?", "a*", true},
		{"a+ b", "(a + b)* b?", true},
		{"a b a", "a* b? a?", true},
		{"a b a", "a? b? a?", true},
		{"a b a b", "a? b? a?", false},
		{"b a", "a? b? a?", true}, // skip the first a?, then b, then a
		{"b a b", "a? b? a?", false},
		{"(a + b)+ c?", "(a + b + c)*", true},
		{"(a + b)+", "a* b*", false},
	}
	for _, c := range cases {
		c1, c2 := MustParse(c.e1), MustParse(c.e2)
		got, m := Contains(c1, c2)
		if m != MethodGreedy {
			t.Errorf("Contains(%q,%q) used %v, want greedy", c.e1, c.e2, m)
		}
		if got != c.want {
			t.Errorf("Contains(%q,%q) = %v, want %v", c.e1, c.e2, got, c.want)
		}
	}
}

func TestContainsAgainstAutomataOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	alpha := []string{"a", "b", "c"}
	fragments := [][]FactorType{
		{TypeA, TypeAPlus},
		{TypeA, TypeDisj},
		{TypeAQuestion, TypeAStar, TypeDisjStar},
		{TypeA, TypeAQuestion, TypeAStar},
		{TypeA, TypeDisjQuestion},
		nil, // all types
	}
	for _, frag := range fragments {
		for i := 0; i < 60; i++ {
			c1 := RandomCHARE(r, alpha, 1+r.Intn(4), frag...)
			c2 := RandomCHARE(r, alpha, 1+r.Intn(4), frag...)
			got, method := Contains(c1, c2)
			want := automata.Contains(c1.Expr(), c2.Expr())
			if got != want {
				t.Fatalf("Contains(%q, %q) = %v via %v, automata oracle says %v",
					c1, c2, got, method, want)
			}
		}
	}
}

func TestIntersectionSpecialized(t *testing.T) {
	cases := []struct {
		es     []string
		want   bool
		method Method
	}{
		{[]string{"a a+", "a+ a", "a a a+"}, true, MethodBlocks},
		{[]string{"a a", "a a a"}, false, MethodBlocks},
		{[]string{"a+ b", "a b+"}, true, MethodBlocks},
		{[]string{"a b", "b a"}, false, MethodBlocks},
		{[]string{"(a + b) c", "(b + d) c"}, true, MethodFixedLen},
		{[]string{"(a + b) c", "(c + d) c"}, false, MethodFixedLen},
		{[]string{"a* b", "a a* b"}, true, MethodAutomata},
	}
	for _, c := range cases {
		var cs []*CHARE
		for _, s := range c.es {
			cs = append(cs, MustParse(s))
		}
		got, m := IntersectionNonEmpty(cs...)
		if m != c.method {
			t.Errorf("IntersectionNonEmpty(%v) used %v, want %v", c.es, m, c.method)
		}
		if got != c.want {
			t.Errorf("IntersectionNonEmpty(%v) = %v, want %v", c.es, got, c.want)
		}
	}
}

func TestIntersectionAgainstAutomataOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	alpha := []string{"a", "b"}
	fragments := [][]FactorType{
		{TypeA, TypeAPlus},
		{TypeA, TypeDisj},
	}
	for _, frag := range fragments {
		for i := 0; i < 80; i++ {
			n := 2 + r.Intn(2)
			cs := make([]*CHARE, n)
			es := make([]*regex.Expr, n)
			for j := range cs {
				cs[j] = RandomCHARE(r, alpha, 1+r.Intn(4), frag...)
				es[j] = cs[j].Expr()
			}
			got, _ := IntersectionNonEmpty(cs...)
			want := automata.IntersectionNonEmpty(es...)
			if got != want {
				t.Fatalf("IntersectionNonEmpty(%v) = %v, oracle %v", cs, got, want)
			}
		}
	}
}

func TestMemberRLE(t *testing.T) {
	c := MustParse("a+ b a*")
	cases := []struct {
		w    RLEWord
		want bool
	}{
		{RLEWord{{"a", 1000000000}, {"b", 1}, {"a", 999999999}}, true},
		{RLEWord{{"a", 1}, {"b", 1}}, true},
		{RLEWord{{"b", 1}}, false},
		{RLEWord{{"a", 5}, {"b", 2}}, false},
		{RLEWord{{"a", 3}, {"a", 4}, {"b", 1}}, true}, // non-normalized input
	}
	for _, cse := range cases {
		if got := MemberRLE(c, cse.w); got != cse.want {
			t.Errorf("MemberRLE(%v) = %v, want %v", cse.w, got, cse.want)
		}
	}
	// exact-count expression: huge runs must be rejected
	exact := MustParse("a a a")
	if MemberRLE(exact, RLEWord{{"a", 1000000}}) {
		t.Error("a^1000000 accepted by a a a")
	}
	if !MemberRLE(exact, RLEWord{{"a", 3}}) {
		t.Error("a^3 rejected by a a a")
	}
}

func TestMemberRLEAgainstExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	alpha := []string{"a", "b"}
	for i := 0; i < 200; i++ {
		c := RandomCHARE(r, alpha, 1+r.Intn(4))
		var w RLEWord
		for j := 0; j < r.Intn(4); j++ {
			w = append(w, RLERun{alpha[r.Intn(2)], 1 + r.Intn(6)})
		}
		var expanded []string
		for _, run := range w {
			for k := 0; k < run.Count; k++ {
				expanded = append(expanded, run.Label)
			}
		}
		if got, want := MemberRLE(c, w), ref.Matches(c.Expr(), expanded); got != want {
			t.Fatalf("MemberRLE(%q, %v) = %v, expansion says %v", c, w, got, want)
		}
	}
}

func TestFactorTypeNames(t *testing.T) {
	f := Factor{Symbols: []string{"a"}, Mod: Star}
	if f.Type().String() != "a*" {
		t.Errorf("type = %q", f.Type())
	}
	g := Factor{Symbols: []string{"a", "b"}, Mod: Plus}
	if g.Type().String() != "(+a)+" {
		t.Errorf("type = %q", g.Type())
	}
	if g.String() != "(a + b)+" {
		t.Errorf("String = %q", g.String())
	}
}
