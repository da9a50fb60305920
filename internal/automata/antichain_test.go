package automata

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

// TestAntichainAgreesWithReferenceRandom differentially tests the
// antichain engine against the derivative reference ref.Contains on
// seeded random expression pairs, in both directions. The dedicated
// oracle (internal/oracle/antichain.go) runs the same comparison at
// fuzzing scale; this is the always-on regression net.
func TestAntichainAgreesWithReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := regex.DefaultGen([]string{"a", "b"})
	g.MaxDepth = 3
	g.MaxFanout = 3
	for trial := 0; trial < 400; trial++ {
		e1, e2 := g.Random(r), g.Random(r)
		if numStates(e1) > 10 || numStates(e2) > 10 {
			continue // keep the reference's derivative search small
		}
		for _, dir := range [][2]*regex.Expr{{e1, e2}, {e2, e1}} {
			want, decided := ref.Contains(dir[0], dir[1])
			if !decided {
				t.Fatalf("ref.Contains(%s, %s) undecided", dir[0], dir[1])
			}
			got, err := ContainsCtx(context.Background(), dir[0], dir[1])
			if err != nil {
				t.Fatalf("ContainsCtx(%s, %s): %v", dir[0], dir[1], err)
			}
			if got != want {
				t.Fatalf("antichain Contains(%s, %s) = %v, ref.Contains = %v",
					dir[0], dir[1], got, want)
			}
		}
	}
}

// TestAntichainKnownFamilies pins the engine on the two calibrated
// adversarial families at small k, where the expected verdicts are
// known analytically.
func TestAntichainKnownFamilies(t *testing.T) {
	all := regex.MustParse("(a|b)*")
	for k := 1; k <= 8; k++ {
		blow := adversarialRight(k)
		if ok, _ := ContainsCtx(context.Background(), all, blow); ok {
			t.Fatalf("(a|b)* ⊆ blowup(%d) = true, want false", k)
		}
		if ok, _ := ContainsCtx(context.Background(), blow, all); !ok {
			t.Fatalf("blowup(%d) ⊆ (a|b)* = false, want true", k)
		}
		if ok, _ := ContainsCtx(context.Background(), blow, blow); !ok {
			t.Fatalf("blowup(%d) self-containment = false, want true", k)
		}
	}
	for k := 1; k <= 6; k++ {
		hard := regex.MustParse(AntichainHardExpr(k))
		if ok, _ := ContainsCtx(context.Background(), hard, hard); !ok {
			t.Fatalf("hard(%d) self-containment = false, want true", k)
		}
		// Different window lengths disagree on short words: a word of
		// length k+2 is in hard(k) but too short for hard(k+1).
		next := regex.MustParse(AntichainHardExpr(k + 1))
		if ok, _ := ContainsCtx(context.Background(), hard, next); ok {
			t.Fatalf("hard(%d) ⊆ hard(%d) = true, want false", k, k+1)
		}
	}
}

// numStates is the number of states of the Glushkov automaton of e: its
// positions and the initial state.
func numStates(e *regex.Expr) int {
	positions, _ := measure(e)
	return positions + 1
}

// tracedContains runs ContainsCtx under a fresh tracer and returns the
// verdict with the finished span tree.
func tracedContains(t *testing.T, e1, e2 *regex.Expr) (bool, *obs.Node) {
	t.Helper()
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	ok, err := ContainsCtx(ctx, e1, e2)
	if err != nil {
		t.Fatalf("Contains(%s, %s): %v", e1, e2, err)
	}
	root.Finish()
	return ok, root.Tree()
}

// tracedDeterminize runs the subset construction of e's Matcher under a
// fresh tracer and returns the finished span tree. It is the eager
// side of the cost comparisons: the classic containment engine ran
// exactly this on its right side before searching the product.
func tracedDeterminize(t *testing.T, e *regex.Expr) *obs.Node {
	t.Helper()
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	if _, err := determinizeCtx(ctx, NewMatcher(e)); err != nil {
		t.Fatalf("determinize(%s): %v", e, err)
	}
	root.Finish()
	return root.Tree()
}

// sumCounter totals one cost counter over a span tree.
func sumCounter(n *obs.Node, counter string) (total int64) {
	total = n.Counters[counter]
	for _, c := range n.Children {
		total += sumCounter(c, counter)
	}
	return total
}

// costCounters is (states_expanded, product_states, antichain_pruned).
func costCounters(n *obs.Node) [3]int64 {
	return [3]int64{
		sumCounter(n, "states_expanded"),
		sumCounter(n, "product_states"),
		sumCounter(n, "antichain_pruned"),
	}
}

// costFamilies are the instance families the cost counters are
// compared on: small random pairs, the subset-construction blowup,
// and the family built to defeat antichain pruning.
func costFamilies() []struct {
	name  string
	pairs [][2]*regex.Expr
} {
	r := rand.New(rand.NewSource(1))
	g := regex.DefaultGen([]string{"a", "b"})
	g.MaxDepth = 3
	g.MaxFanout = 3
	var easy [][2]*regex.Expr
	for len(easy) < 10 {
		e1, e2 := g.Random(r), g.Random(r)
		if numStates(e1) > 10 || numStates(e2) > 10 {
			continue // the eager side determinizes; keep it cheap
		}
		easy = append(easy, [2]*regex.Expr{e1, e2})
	}
	blow := adversarialRight(10)
	hard := regex.MustParse(AntichainHardExpr(6))
	return []struct {
		name  string
		pairs [][2]*regex.Expr
	}{
		{"easy-random", easy},
		{"adversarial-blowup", [][2]*regex.Expr{{blow, blow}}},
		{"antichain-hard", [][2]*regex.Expr{{hard, hard}}},
	}
}

// TestAntichainCostCountersAllFamilies runs every cost family through
// the engine under tracing: the verdicts must agree with ref.Contains,
// the engine must report nonzero states_expanded and product_states per
// family, and the eager determinization of the right sides nonzero
// states_expanded.
func TestAntichainCostCountersAllFamilies(t *testing.T) {
	for _, f := range costFamilies() {
		var anti [3]int64
		var eager int64
		for _, p := range f.pairs {
			ok, tree := tracedContains(t, p[0], p[1])
			if want, decided := ref.Contains(p[0], p[1]); !decided || ok != want {
				t.Fatalf("%s: Contains(%s, %s) = %v, ref.Contains = %v (decided %v)", f.name, p[0], p[1], ok, want, decided)
			}
			a := costCounters(tree)
			for i := range anti {
				anti[i] += a[i]
			}
			eager += sumCounter(tracedDeterminize(t, p[1]), "states_expanded")
		}
		if anti[0] == 0 || eager == 0 {
			t.Fatalf("%s: states_expanded antichain=%d eager=%d, want both > 0", f.name, anti[0], eager)
		}
		if anti[1] == 0 {
			t.Fatalf("%s: product_states = 0, want > 0", f.name)
		}
	}
}

// TestAntichainCountersDeterministic runs every cost family twice
// through the engine and the eager determinization of its right side:
// states_expanded, product_states and antichain_pruned must be
// identical across the two runs (wall time varies; these counters must
// not).
func TestAntichainCountersDeterministic(t *testing.T) {
	engines := []struct {
		name string
		run  func(p [2]*regex.Expr) *obs.Node
	}{
		{"antichain", func(p [2]*regex.Expr) *obs.Node { _, tree := tracedContains(t, p[0], p[1]); return tree }},
		{"eager", func(p [2]*regex.Expr) *obs.Node { return tracedDeterminize(t, p[1]) }},
	}
	for _, f := range costFamilies() {
		for _, eng := range engines {
			for _, p := range f.pairs {
				if a, b := costCounters(eng.run(p)), costCounters(eng.run(p)); a != b {
					t.Fatalf("%s/%s: counters %v then %v across identical runs on %s ⊆ %s",
						f.name, eng.name, a, b, p[0], p[1])
				}
			}
		}
	}
}

// searchGoldenDigest is the SHA-256 of the lines TestAntichainSearchGolden
// writes. A change means the search visits other pairs, or in another
// order: a changed verdict or cost counter, not a flaky test.
const searchGoldenDigest = "1858c7d339067e873e0407142c0435f119ef4dbfd609c6fc6bf4886dc620a0c4"

// TestAntichainSearchGolden hashes the verdict and the three cost
// counters of ContainsCtx on ~3,000 seeded pairs with ∅ and ε
// subexpressions, half of them (e1, e1|e2) so the search runs to its
// end, plus every costFamilies pair.
func TestAntichainSearchGolden(t *testing.T) {
	h := sha256.New()
	record := func(e1, e2 *regex.Expr) {
		ok, tree := tracedContains(t, e1, e2)
		c := costCounters(tree)
		fmt.Fprintf(h, "%s\t%s\t%v\t%d %d %d\n", e1, e2, ok, c[0], c[1], c[2])
	}
	r := rand.New(rand.NewSource(34))
	g := regex.DefaultGen([]string{"a", "b", "c", "d"})
	for i := 0; i < 3000; i++ {
		g.MaxDepth = 1 + r.Intn(6)
		e1 := sprinkleVoid(r, g.Random(r))
		e2 := sprinkleVoid(r, g.Random(r))
		if i%2 == 0 {
			e2 = regex.NewUnion(e1, e2)
		}
		record(e1, e2)
	}
	for _, f := range costFamilies() {
		for _, p := range f.pairs {
			record(p[0], p[1])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchGoldenDigest {
		t.Fatalf("search digest = %s, want %s", got, searchGoldenDigest)
	}
}

// TestAntichainPruningBeatsClassic runs blowup-family self-containment
// under tracing and checks the acceptance ratio: the lazy engine must
// expand at least 10× fewer subset-states than the eager determinization
// of the right side, which the classic engine ran before its product
// search. BenchmarkAntichainVsClassicBlowup times the same family.
func TestAntichainPruningBeatsClassic(t *testing.T) {
	e := adversarialRight(10)

	okLazy, lazyTree := tracedContains(t, e, e)
	if !okLazy {
		t.Fatal("self-containment = false")
	}
	lazy := sumCounter(lazyTree, "states_expanded")
	eager := sumCounter(tracedDeterminize(t, e), "states_expanded")
	if lazy == 0 || eager == 0 {
		t.Fatalf("states_expanded: lazy=%d eager=%d, want both > 0", lazy, eager)
	}
	if eager < 10*lazy {
		t.Fatalf("states_expanded: lazy=%d eager=%d, want >= 10x reduction", lazy, eager)
	}
	t.Logf("states_expanded: antichain %d, eager %d (%.1fx)", lazy, eager, float64(eager)/float64(lazy))
	if pruned := sumCounter(lazyTree, "antichain_pruned"); pruned == 0 {
		t.Fatal("antichain_pruned = 0, want > 0 on the blowup family")
	}
}

// TestAntichainEdgeCases covers the determinized sink, ε, empty
// languages, and label sets that differ across the two sides — the
// places where a packed-transition-table engine can go wrong.
func TestAntichainEdgeCases(t *testing.T) {
	cases := []struct {
		e1, e2 *regex.Expr
		want   bool
		name   string
	}{
		{regex.MustParse("a?"), regex.MustParse("a"), false, "ε counterexample at the initial pair"},
		{regex.MustParse("a"), regex.MustParse("a?"), true, "nullable superset"},
		{regex.NewEpsilon(), regex.MustParse("a*"), true, "ε ⊆ a*"},
		{regex.NewEmpty(), regex.MustParse("a"), true, "∅ ⊆ anything"},
		{regex.MustParse("a"), regex.NewEmpty(), false, "nonempty ⊄ ∅"},
		{regex.MustParse("a"), regex.MustParse("b"), false, "left label unknown to the right side"},
		{regex.MustParse("a"), regex.MustParse("a|b"), true, "right label unknown to the left side"},
		{regex.MustParse("a b c"), regex.MustParse("a b"), false, "run into the sink set"},
		{regex.MustParse("(a b)*"), regex.MustParse("(a|b)*"), true, "star nesting"},
	}
	for _, c := range cases {
		got, err := ContainsCtx(context.Background(), c.e1, c.e2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Fatalf("%s: Contains(%s, %s) = %v, want %v", c.name, c.e1, c.e2, got, c.want)
		}
		if want, decided := ref.Contains(c.e1, c.e2); !decided || want != c.want {
			t.Fatalf("%s: ref.Contains disagrees with the table (%v, decided %v)", c.name, want, decided)
		}
	}
}

// TestIntersectionWitnessAllocBound is the regression test for the BFS
// queue rewrite in IntersectionWitnessCtx: the old implementation
// copied the whole witness word into every queue item (quadratic bytes
// in the witness length) and popped with queue = queue[1:], pinning the
// backing array. On a chain instance with a witness of length n the fix
// keeps total allocation linear; the old code allocated > n²/2 * 16
// bytes in word copies alone (~18 MB at n=1500), so an 8 MB bound
// separates them cleanly.
func TestIntersectionWitnessAllocBound(t *testing.T) {
	const n = 1500
	e := regex.MustParse(strings.TrimSpace(strings.Repeat("a ", n)))
	es := []*regex.Expr{e, regex.MustParse("a*")}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, ok, err := IntersectionWitnessCtx(context.Background(), es...)
	runtime.ReadMemStats(&after)
	if err != nil || !ok {
		t.Fatalf("witness = %v, %v", ok, err)
	}
	if len(w) != n {
		t.Fatalf("witness length = %d, want %d", len(w), n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("allocated %d bytes for a length-%d witness, want <= 8 MB", alloc, n)
	}
}

// BenchmarkAntichainHard measures the engine on the family its pruning
// cannot help with — the honest worst case.
func BenchmarkAntichainHard(b *testing.B) {
	hard := regex.MustParse(AntichainHardExpr(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ContainsCtx(context.Background(), hard, hard)
		if err != nil || !ok {
			b.Fatalf("self-containment = %v, %v", ok, err)
		}
	}
}

// BenchmarkAntichainVsClassicBlowup reports the engine and the eager
// determinization of the right side, the classic engine's first step,
// on the same pruning-friendly instance for paired comparison via
// -bench.
func BenchmarkAntichainVsClassicBlowup(b *testing.B) {
	e := adversarialRight(12)
	b.Run(fmt.Sprintf("antichain/k=%d", 12), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := ContainsCtx(context.Background(), e, e); err != nil || !ok {
				b.Fatalf("= %v, %v", ok, err)
			}
		}
	})
	b.Run(fmt.Sprintf("determinize/k=%d", 12), func(b *testing.B) {
		m := NewMatcher(e)
		for i := 0; i < b.N; i++ {
			if _, err := determinizeCtx(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReferenceSeesDroppedFollowEdge shows that ref.Contains catches a
// bug in the Glushkov visit, which the engine and the Matcher share. It
// lowers both sides as ContainsMappedCtx does, clears the last follow
// bit of the left side's table, and searches the mutated tables. The
// dropped edge shrinks L(e1), so the search can answer a spurious true,
// which the derivative reference, sharing no code with the visit,
// contradicts.
func TestReferenceSeesDroppedFollowEdge(t *testing.T) {
	mutated := func(e1, e2 *regex.Expr) bool {
		d := new(decision)
		c1, syms1 := lowerExpr(e1, &d.sides[0])
		c2, syms2 := lowerExpr(e2, &d.sides[1])
		d.alpha = appendAlphabet(d.alpha, syms1)
		d.labels.add(d.alpha)
		d.alpha = appendAlphabet(d.alpha, syms2)
		d.labels.add(d.alpha)
		c1.bindLabels(syms1, &d.labels)
		c2.bindLabels(syms2, &d.labels)
		for i := len(c1.follow) - 1; i >= 0; i-- {
			if w := c1.follow[i]; w != 0 {
				c1.follow[i] = w &^ (1 << (63 - bits.LeadingZeros64(w)))
				break
			}
		}
		ok, err := containsAntichainCtx(context.Background(), c1, c2, &d.search)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	e1, e2 := regex.MustParse("a b"), regex.MustParse("a")
	if want, _ := ref.Contains(e1, e2); want || !mutated(e1, e2) {
		t.Fatalf("a b ⊆ a: mutated search %v, ref.Contains %v; want a spurious true against false", mutated(e1, e2), want)
	}
	r := rand.New(rand.NewSource(3))
	g := regex.DefaultGen([]string{"a", "b"})
	g.MaxDepth = 3
	caught := 0
	for i := 0; i < 200; i++ {
		e1, e2 := g.Random(r), g.Random(r)
		if want, decided := ref.Contains(e1, e2); decided && want != mutated(e1, e2) {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("ref.Contains agreed with the mutated search on all 200 seeded pairs")
	}
	t.Logf("ref.Contains caught the dropped edge on %d of 200 seeded pairs", caught)
}
