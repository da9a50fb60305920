package automata

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/automata/bitset"
	"repro/internal/regex"
)

// sprinkleVoid wraps random subexpressions of e as (x ∅), (x | ε) or
// (x ε), so the lowering meets positions that extend the alphabet but
// yield no transition, and nullable factors inside concatenations.
func sprinkleVoid(r *rand.Rand, e *regex.Expr) *regex.Expr {
	out := &regex.Expr{Kind: e.Kind, Sym: e.Sym}
	for _, s := range e.Subs {
		out.Subs = append(out.Subs, sprinkleVoid(r, s))
	}
	switch f := r.Float64(); {
	case f < 0.04:
		return &regex.Expr{Kind: regex.Concat, Subs: []*regex.Expr{out, regex.NewEmpty()}}
	case f < 0.08:
		return &regex.Expr{Kind: regex.Union, Subs: []*regex.Expr{out, regex.NewEpsilon()}}
	case f < 0.12:
		return &regex.Expr{Kind: regex.Concat, Subs: []*regex.Expr{regex.NewEpsilon(), out}}
	}
	return out
}

// requireSameTables fails unless got and want have the same shape,
// initial states, final bitset and follow rows, and put every position
// some transition enters in the same pos row.
func requireSameTables(t *testing.T, e *regex.Expr, want, got *posNFA) {
	t.Helper()
	if got.numStates != want.numStates || got.width != want.width {
		t.Fatalf("%s: %d states × %d labels, want %d × %d", e, got.numStates, got.width, want.numStates, want.width)
	}
	if !slices.Equal(got.initial, want.initial) {
		t.Fatalf("%s: initial %v, want %v", e, got.initial, want.initial)
	}
	if !got.final.Equal(want.final) {
		t.Fatalf("%s: final %v, want %v", e, got.final, want.final)
	}
	entered := bitset.New(want.numStates)
	for q := 0; q < want.numStates; q++ {
		if !got.followRow(q).Equal(want.followRow(q)) {
			t.Fatalf("%s: follow row %d = %v, want %v", e, q, got.followRow(q), want.followRow(q))
		}
		entered.UnionWith(want.followRow(q))
	}
	gotPos, wantPos := bitset.New(want.numStates), bitset.New(want.numStates)
	for l := 0; l < want.width; l++ {
		gotPos.And(got.posRow(l), entered)
		wantPos.And(want.posRow(l), entered)
		if !gotPos.Equal(wantPos) {
			t.Fatalf("%s: entered positions on label %d = %v, want %v", e, l, gotPos, wantPos)
		}
	}
}

// tablesOf lays out the Glushkov automaton n as position tables on the
// label table, whose ids must already cover n's alphabet. It fails
// unless n is homogeneous, as Glushkov automata are.
func tablesOf(t *testing.T, n *NFA, labels *labelTable) *posNFA {
	t.Helper()
	c := newPosNFA(n.NumStates, labels.len())
	c.initial = append([]int(nil), n.Initial...)
	for q, final := range n.Final {
		if final {
			c.final.Add(q)
		}
	}
	entered := make([]int, n.NumStates) // 1 + the label id entering each state
	for q, row := range n.Trans {
		for a, succs := range row {
			l := labels.id(a)
			for _, p := range succs {
				if entered[p] != 0 && entered[p] != l+1 {
					t.Fatalf("state %d is entered on both %q and %q", p, labels.names[entered[p]-1], a)
				}
				entered[p] = l + 1
				c.followRow(q).Add(p)
				c.posRow(l).Add(p)
			}
		}
	}
	return c
}

// checkLowering lowers e both ways onto one label table that already
// holds other's labels, as the right side of a containment check sees
// it, after checking that both ways agree on e's alphabet.
func checkLowering(t *testing.T, other, e *regex.Expr) {
	t.Helper()
	got, syms := lowerExpr(e)
	n := Glushkov(e)
	if alpha := alphabetOf(syms); !slices.Equal(alpha, n.Alphabet) {
		t.Fatalf("%s: alphabet %v, want %v", e, alpha, n.Alphabet)
	}
	var labels labelTable
	labels.add(other.Alphabet())
	labels.add(n.Alphabet)
	got.bindLabels(syms, &labels)
	requireSameTables(t, e, tablesOf(t, n, &labels), got)
}

// TestLowerExprMatchesGlushkov checks that the two follow sinks of the
// Glushkov visit agree: the bitset rows lowerExpr writes equal, row for
// row, the tables of the NFA that Glushkov writes through its sparse
// sink, on seeded random expressions with ∅ and ε subexpressions.
func TestLowerExprMatchesGlushkov(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g := regex.DefaultGen([]string{"a", "b", "c", "d", "e"})
	for i := 0; i < 2000; i++ {
		g.MaxDepth = 1 + r.Intn(6)
		other := g.Random(r)
		e := sprinkleVoid(r, g.Random(r))
		checkLowering(t, other, e)
	}
	for _, src := range []string{"<eps>", "<empty>", "a <empty>", "(a <empty>)* b", "(a b)* <empty> + c"} {
		checkLowering(t, regex.MustParse("z"), regex.MustParse(src))
	}
	// Wide unions and long concatenations cross word boundaries and take
	// both the dense and the sparse follow update.
	wide := "(" + strings.Repeat("a|b|", 70) + "c)* (a|b)"
	long := strings.Repeat("a b? ", 70) + "(c d)*"
	for _, src := range []string{wide, long} {
		checkLowering(t, regex.MustParse("z"), regex.MustParse(src))
	}
}

// TestLowerExprAllocs pins the allocations of one side's lowering on
// the containment path: the follow sink must add none, so a sink that
// allocates (a closure, a fresh scratch row) fails here.
func TestLowerExprAllocs(t *testing.T) {
	e := regex.MustParse("(a (b + c)* d?)+ (a + b)* c")
	var labels labelTable
	labels.add(e.Alphabet())
	allocs := testing.AllocsPerRun(100, func() {
		c, syms := lowerExpr(e)
		c.bindLabels(syms, &labels)
	})
	if allocs > 11 {
		t.Fatalf("lowerExpr + bindLabels: %v allocations, want ≤ 11", allocs)
	}
}

// FuzzLowerExpr checks the same property on raw expression text.
func FuzzLowerExpr(f *testing.F) {
	f.Add("b* a (b* a)*", "a")
	f.Add("(a + b)* a (a + b)", "c d")
	f.Add("a <empty> + <eps>", "a")
	f.Add("((a b)* <empty>)* c?", "b")
	f.Fuzz(func(t *testing.T, src, otherSrc string) {
		e, err := regex.Parse(src)
		if err != nil || e.Size() > 200 {
			t.Skip()
		}
		other, err := regex.Parse(otherSrc)
		if err != nil {
			other = regex.NewEpsilon()
		}
		checkLowering(t, other, e)
	})
}

// TestAlphabetOf checks alphabetOf against sorting every occurrence,
// on both sides of its switch from linear search to sorting, with the ""
// of dropped labels among them.
func TestAlphabetOf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, distinct := range []int{1, 5, maxLinearAlphabet, maxLinearAlphabet + 1, 200} {
		syms := make([]string, 4*distinct)
		for i := range syms {
			syms[i] = fmt.Sprintf("l%d", r.Intn(distinct))
			if i%7 == 3 {
				syms[i] = ""
			}
		}
		want := slices.DeleteFunc(slices.Clone(syms), func(a string) bool { return a == "" })
		slices.Sort(want)
		want = slices.Compact(want)
		if got := alphabetOf(syms); !slices.Equal(got, want) {
			t.Fatalf("%d labels: alphabetOf = %v, want %v", distinct, got, want)
		}
	}
}

// TestContainsMappedCtx checks the left-side label map: restricting to
// two label sets and merging c into b, each against ContainsCtx on the
// expression with the map applied to its symbols.
func TestContainsMappedCtx(t *testing.T) {
	left := regex.MustParse("(a b | c)* a")
	keep := func(labels ...string) func(string) (string, bool) {
		return func(a string) (string, bool) { return a, slices.Contains(labels, a) }
	}
	merge := func(a string) (string, bool) {
		if a == "c" {
			return "b", true
		}
		return a, true
	}
	cases := []struct {
		rename func(string) (string, bool)
		e      string
		want   bool
	}{
		{keep("a", "b"), "(a b)* a", true},
		{keep("a", "c"), "c* a", true},
		{merge, "(a b | b)* a", true},
		{merge, "(a b)* a", false},
	}
	for _, c := range cases {
		right := regex.MustParse(c.e)
		got, err := ContainsMappedCtx(context.Background(), left, c.rename, right)
		if err != nil || got != c.want {
			t.Fatalf("ContainsMappedCtx(_, %s) = %v, %v, want %v", c.e, got, err, c.want)
		}
		if ref := Contains(mapSymbols(left, c.rename), right); ref != got {
			t.Fatalf("ContainsMappedCtx(_, %s) = %v, but ContainsCtx on the mapped expression = %v", c.e, got, ref)
		}
	}
}
