package propertypath

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/oracle/ref"
	"repro/internal/rdf"
	"repro/internal/regex"
)

func TestParseAndPrint(t *testing.T) {
	cases := []struct{ in, out string }{
		{"wdt:P31/wdt:P279*", "wdt:P31/wdt:P279*"},
		{"wdt:P31*", "wdt:P31*"},
		{"a|b", "a|b"},
		{"^wdt:P31", "^wdt:P31"},
		{"(a/b)*", "(a/b)*"},
		{"!(rdf:type|^rdfs:label)", "!(rdf:type|^rdfs:label)"},
		{"!a", "!(a)"},
		{"a/b?/c+", "a/b?/c+"},
		{"<http://x.org/p>", "<http://x.org/p>"},
		{"a/(b|c)", "a/(b|c)"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.out)
		}
	}
	for _, bad := range []string{"", "a/", "|a", "a|", "(a", "a)", "!", "^", "a**?/"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestTypeString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"wdt:P31*", "a*"},
		{"wdt:P31/wdt:P279*", "ab*"},
		{"wdt:P31/wdt:P31*", "aa*"},
		{"wdt:P31/wdt:P279/wdt:P31", "aba"},
		{"a/b/c", "abc"},
		{"(a|b)*", "A*"},
		{"!a", "A"},
		{"^wdt:P31", "a"},
		{"a/^b*", "ab*"},
		{"(a|b)/c*", "Aa*"}, // A does not consume a letter; c is the first letter
		{"a*/b*", "a*b*"},
	}
	for _, c := range cases {
		if got := TypeString(MustParse(c.in)); got != c.want {
			t.Errorf("TypeString(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   string
		want Table8Row
	}{
		{"wdt:P31*", RowAStar},
		{"wdt:P31/wdt:P279*", RowABStar},
		{"wdt:P31+", RowABStar},
		{"a*/b", RowABStar}, // reverse of ab*
		{"a/b*/c*", RowABStarCStar},
		{"(a|b)*", RowCapAStar},
		{"a/b*/c", RowABStarC},
		{"a*/b*", RowAStarBStar},
		{"a/b/c*", RowABCStar},
		{"a?/b*", RowAOptBStar},
		{"(a|b)+", RowCapAPlus},
		{"(a|b)/c*", RowCapABStar},
		{"(a/b)*", RowOtherTrans},
		{"a/b/c", RowSeq},
		{"a/b/c/d/e", RowSeq},
		{"a|b", RowCapA},
		{"!a", RowCapA},
		{"(a|b)?", RowCapAOpt},
		{"a/b?/c?", RowSeqOpt},
		{"^a", RowInverse},
		{"a/b/c?", RowABCOpt},
		{"(a|b)/(c|d)", RowOtherNonTrans},
		{"c*/b/a", RowOtherTrans}, // reverse of ab c* = abc*? "c*/b/a" reversed = a/b/c* → RowABCStar
	}
	// correct the last expectation: reverse aggregation maps it to abc*.
	cases[len(cases)-1].want = RowABCStar
	for _, c := range cases {
		if got := Classify(MustParse(c.in)); got != c.want {
			t.Errorf("Classify(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsTransitive(t *testing.T) {
	if !MustParse("a/b*").IsTransitive() {
		t.Error("a/b* is transitive")
	}
	if MustParse("a/b?").IsTransitive() {
		t.Error("a/b? is not transitive")
	}
}

func TestIsSimpleTransitive(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"wdt:P31/wdt:P279*", true},
		{"a*", true},
		{"a/b/c", true},
		{"(a|b)*", true},
		{"a?/b*", true},
		{"a*/b*", false},  // the paper's canonical non-member
		{"(a/b)*", false}, // starred non-atom
		{"a/b*/c*", false},
		{"(a|b)/(c|d)+", true},
	}
	for _, c := range cases {
		if got := IsSimpleTransitive(MustParse(c.in)); got != c.want {
			t.Errorf("IsSimpleTransitive(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInCtract(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		// a* is simple-path tractable.
		{"a*", true},
		// (aa)* is the canonical NP-hard case (even-length paths).
		{"(a/a)*", false},
		// downward-closed languages are tractable.
		{"a*/b*", true},
		{"a?/b?", true},
		// single edges and short sequences are trivially tractable.
		{"a", true},
		{"a/b/c", true},
		{"a/b*", true},
		// a*ba* — tractable per BBG's trichotomy examples.
		{"a*/b/a*", true},
		// (ab)* IS closed under loop pumping (every DFA loop of (ab)* can
		// be repeated more), unlike (aa)* where pumping an odd 'a' loop
		// breaks parity.
		{"(a/b)*", true},
		{"(a/a)*", false},
	}
	for _, c := range cases {
		if got := InCtract(MustParse(c.in)); got != c.want {
			t.Errorf("InCtract(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTransitionMonoidLargeStateIDs: on a 107-state DFA where a swaps
// states 5 and 105 and b swaps 6 and 106, the monoid is the four
// functions {id, a, b, ab}. A key that kept only the last two decimal
// digits of each state id would take a and b for the identity.
func TestTransitionMonoidLargeStateIDs(t *testing.T) {
	d := &automata.DFA{Alphabet: []string{"a", "b"}, Final: make([]bool, 107)}
	for q := range d.Final {
		d.Next = append(d.Next, q, q)
	}
	d.Next[2*5], d.Next[2*105] = 105, 5
	d.Next[2*6+1], d.Next[2*106+1] = 106, 6
	if elements, _ := transitionMonoid(d); len(elements) != 4 {
		t.Fatalf("monoid has %d elements, want 4", len(elements))
	}
}

func TestIsDownwardClosed(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"a*", true},
		{"a*/b*", true},
		{"a?/b?", true},
		{"a", false},  // deleting the edge leaves ε ∉ L
		{"a+", false}, // ε missing
		{"(a|b)*", true},
		{"a/b*", false},
		{"a/b", false},
		{"(a/a)*", false}, // deleting one edge leaves an odd length
	}
	for _, c := range cases {
		if got := IsDownwardClosed(MustParse(c.in)); got != c.want {
			t.Errorf("IsDownwardClosed(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDownwardClosedSound samples words of every random expression found
// downward closed and checks by Brzozowski derivatives, which share no
// code with the containment engine, that deleting any one letter keeps
// them in the language.
func TestDownwardClosedSound(t *testing.T) {
	g := regex.DefaultGen([]string{"a", "b"})
	g.MaxDepth = 4
	r := rand.New(rand.NewSource(1))
	closed := 0
	for i := 0; i < 2000; i++ {
		e := g.Random(r)
		if !downwardClosedRegex(e) {
			continue
		}
		closed++
		for j := 0; j < 5; j++ {
			w, _ := regex.RandomWord(e, r)
			if len(w) > 10 { // derivatives grow with the word
				continue
			}
			for k := range w {
				del := append(slices.Clone(w[:k]), w[k+1:]...)
				if !ref.MatchesDerivative(e, del) {
					t.Fatalf("%s is reported downward closed, but has %q and not %q", e, w, del)
				}
			}
		}
	}
	if closed == 0 {
		t.Fatal("no sampled expression is downward closed")
	}
	t.Logf("%d of 2000 downward closed", closed)
}

func TestInTtractApprox(t *testing.T) {
	cases := []struct {
		in             string
		ctract, ttract bool
	}{
		{"a*", true, true},
		{"a*/b*", true, true}, // downward closed
		{"(a/a)*", false, false},
		{"a/b", true, true},
	}
	for _, c := range cases {
		if ctract, ttract := Tractability(MustParse(c.in)); ctract != c.ctract || ttract != c.ttract {
			t.Errorf("Tractability(%q) = %v, %v, want %v, %v", c.in, ctract, ttract, c.ctract, c.ttract)
		}
	}
}

func wikidataGraph() *rdf.Graph {
	g := rdf.NewGraph()
	// small class hierarchy: site -P31-> cls1 -P279-> cls2 -P279-> arch
	g.Add("site1", "wdt:P31", "cls1")
	g.Add("cls1", "wdt:P279", "cls2")
	g.Add("cls2", "wdt:P279", "wd:Q839954")
	g.Add("site2", "wdt:P31", "wd:Q839954")
	g.Add("site1", "wdt:P625", "coord1")
	return g
}

func TestEvalRegularSemantics(t *testing.T) {
	g := wikidataGraph()
	// The paper's example query path: wdt:P31/wdt:P279*.
	p := MustParse("wdt:P31/wdt:P279*")
	got := Eval(g, p, "site1")
	want := []string{"cls1", "cls2", "wd:Q839954"}
	if len(got) != len(want) {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Eval = %v, want %v", got, want)
		}
	}
	// site2 reaches the target directly (zero P279 steps)
	got2 := Eval(g, p, "site2")
	if len(got2) != 1 || got2[0] != "wd:Q839954" {
		t.Errorf("Eval(site2) = %v", got2)
	}
	// inverse: who is an instance of cls1?
	inv := Eval(g, MustParse("^wdt:P31"), "cls1")
	if len(inv) != 1 || inv[0] != "site1" {
		t.Errorf("inverse eval = %v", inv)
	}
	// negated property set: anything but P625
	neg := Eval(g, MustParse("!wdt:P625"), "site1")
	if len(neg) != 1 || neg[0] != "cls1" {
		t.Errorf("neg eval = %v", neg)
	}
}

func TestEvalSimpleVsTrailVsRegular(t *testing.T) {
	// cycle: x -a-> y -a-> x, plus y -a-> z.
	g := rdf.NewGraph()
	g.Add("x", "a", "y")
	g.Add("y", "a", "x")
	g.Add("y", "a", "z")
	// even-length a-paths from x
	p := MustParse("(a/a)*")
	reg := Eval(g, p, "x")
	// regular semantics: x (0 steps), x (2k steps), z (2 steps)
	if !contains(reg, "x") || !contains(reg, "z") {
		t.Errorf("regular = %v", reg)
	}
	simple := EvalSimplePaths(g, p, "x")
	// simple paths from x with even length: ε (x), x-y-z (length 2, simple) → x, z
	if !contains(simple, "x") || !contains(simple, "z") {
		t.Errorf("simple = %v", simple)
	}
	// x-y-x is NOT simple (repeats x)... but under simple-path semantics
	// the trivial empty path still yields x.
	trails := EvalTrails(g, p, "x")
	if !contains(trails, "x") || !contains(trails, "z") {
		t.Errorf("trails = %v", trails)
	}
	// a path using edge x-y twice is not a trail: x-y-x-y-z (length 4)
	// would need edge (x,a,y) twice — excluded; but it's also even-length
	// reachable via distinct edges? x→y→x→y: reuses. So "y" must NOT be in
	// any of the even-length results.
	for _, res := range [][]string{reg, simple, trails} {
		if contains(res, "y") {
			t.Errorf("y reached by even-length path: %v", res)
		}
	}
}

func TestSimplePathsStricterThanRegular(t *testing.T) {
	// long cycle where regular semantics reaches more than simple paths
	g := rdf.NewGraph()
	g.Add("1", "a", "2")
	g.Add("2", "a", "1")
	p := MustParse("a/a/a") // exactly 3 steps
	reg := Eval(g, p, "1")
	if len(reg) != 1 || reg[0] != "2" {
		t.Errorf("regular = %v", reg)
	}
	simple := EvalSimplePaths(g, p, "1")
	if len(simple) != 0 {
		t.Errorf("simple = %v, want none (3 steps must repeat a node)", simple)
	}
	trail := EvalTrails(g, p, "1")
	if len(trail) != 0 {
		t.Errorf("trail = %v, want none (3 steps must repeat an edge)", trail)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
