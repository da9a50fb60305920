package automata

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/regex"
)

// adversarialRight builds (a|b)* a (a|b)^n, whose Glushkov automaton
// needs 2^n subset states to determinize — the classic PSPACE-hardness
// shape a service must be able to abort.
func adversarialRight(n int) *regex.Expr {
	var b strings.Builder
	b.WriteString("(a|b)* a")
	for i := 0; i < n; i++ {
		b.WriteString(" (a|b)")
	}
	return regex.MustParse(b.String())
}

func TestContainsCtxAgreesWithContains(t *testing.T) {
	cases := [][2]string{
		{"a b", "a (b|c)"},
		{"(a|b)*", "(a|b)* (a|b)*"},
		{"a* b*", "(a|b)*"},
		{"(a|b)*", "a* b*"},
		{"b* a (b* a)*", "(a|b)* a (a|b)*"},
	}
	for _, c := range cases {
		e1, e2 := regex.MustParse(c[0]), regex.MustParse(c[1])
		want := Contains(e1, e2)
		got, err := ContainsCtx(context.Background(), e1, e2)
		if err != nil {
			t.Fatalf("ContainsCtx(%q, %q): %v", c[0], c[1], err)
		}
		if got != want {
			t.Fatalf("ContainsCtx(%q, %q) = %v, Contains = %v", c[0], c[1], got, want)
		}
	}
}

func TestContainsCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ContainsCtx(ctx, regex.MustParse("(a|b)*"), adversarialRight(20))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestContainsCtxDeadlineAbortsHardFamily(t *testing.T) {
	// The lazy engine decides (a|b)* ⊆ adversarialRight(n) instantly (a
	// counterexample sits at depth 1), so the instance that must time out
	// is self-containment of the antichain-hard family: its subset-states
	// are pairwise ⊆-incomparable, pruning never fires, and the full run
	// takes tens of seconds. The deadline must abort it instead.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	hard := regex.MustParse(AntichainHardExpr(16))
	start := time.Now()
	_, err := ContainsCtx(ctx, hard, hard)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 500ms after a 100ms deadline", elapsed)
	}
}

func TestDeterminizeCtxDeadlineAbortsBlowup(t *testing.T) {
	// The subset construction is eager: 2^26 subset states cannot be
	// materialized in 100ms, and the deadline must abort it instead of
	// letting it run away.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := determinizeCtx(ctx, NewMatcher(adversarialRight(26)))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 500ms after a 100ms deadline", elapsed)
	}
}

func TestDeterminizeCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := determinizeCtx(ctx, NewMatcher(adversarialRight(20))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestIntersectionWitnessCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	es := []*regex.Expr{adversarialRight(12), adversarialRight(13), adversarialRight(14)}
	if _, _, err := IntersectionWitnessCtx(ctx, es...); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// wideUnionStar renders (a|a|…|a)* with n alternatives: n positions,
// every one following every other.
func wideUnionStar(n int) string {
	return "(" + strings.Repeat("a|", n-1) + "a)*"
}

// TestContainsWideUnionAllocBound pins the cost of building a right
// side whose follow relation is dense: (a|…|a)* at n = 2,000 has n²
// follow pairs, which as bitset rows take ~0.5 MB. Sparse successor
// lists of those pairs took over 200 MB.
func TestContainsWideUnionAllocBound(t *testing.T) {
	e1, e2 := regex.MustParse("a"), regex.MustParse(wideUnionStar(2000))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ok, err := ContainsCtx(context.Background(), e1, e2)
	runtime.ReadMemStats(&after)
	if err != nil || !ok {
		t.Fatalf("a ⊆ (a|…|a)* = %v, %v", ok, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("allocated %d bytes, want <= 4 MB", alloc)
	}
}

// benchInstance is a moderate containment instance — self-containment
// of the antichain-hard family at k=8, ~1500 lazily interned
// subset-states — that exercises the interner, the antichain insertion,
// and the product search without early exit (the verdict is true).
func benchInstance() (*regex.Expr, *regex.Expr) {
	hard := regex.MustParse(AntichainHardExpr(8))
	return hard, hard
}

// BenchmarkContains measures the context-free entry point; its checkpoints
// run against context.Background(), whose Err is a constant nil.
func BenchmarkContains(b *testing.B) {
	e1, e2 := benchInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contains(e1, e2)
	}
}

// BenchmarkContainsCtx measures the same instance under a live cancelable
// deadline context — the production configuration of rwdserve. Comparing
// against BenchmarkContains bounds the cancellation-checkpoint overhead
// (target: < 5%).
func BenchmarkContainsCtx(b *testing.B) {
	e1, e2 := benchInstance()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ContainsCtx(ctx, e1, e2); err != nil {
			b.Fatal(err)
		}
	}
}

// decideColdPairs returns n seeded random pairs shaped like rwdperf's
// decide-cold mix: DefaultGen over {a,b,c,d} at depth 6, every other
// pair (e1, e1|e2) so half the verdicts are "contained" and run the
// search to its end.
func decideColdPairs(n int) [][2]*regex.Expr {
	r := rand.New(rand.NewSource(1))
	g := regex.DefaultGen([]string{"a", "b", "c", "d"})
	g.MaxDepth = 6
	pairs := make([][2]*regex.Expr, n)
	for i := range pairs {
		e1, e2 := g.Random(r), g.Random(r)
		if i%2 == 0 {
			e2 = regex.NewUnion(e1, e2)
		}
		pairs[i] = [2]*regex.Expr{e1, e2}
	}
	return pairs
}

// BenchmarkContainsDecideColdMix times ContainsCtx on decideColdPairs.
// Each pair is decided from the expressions, so construction is timed
// with the search.
func BenchmarkContainsDecideColdMix(b *testing.B) {
	pairs := decideColdPairs(256)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ok, err := ContainsCtx(ctx, p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		containsSink = ok
	}
}

// containsSink keeps BenchmarkContainsDecideColdMix's calls from being
// optimized away.
var containsSink bool
