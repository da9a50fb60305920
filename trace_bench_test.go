package repro

import (
	"context"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/regex"
)

// traceBenchInstance is a containment pair the lazy antichain engine
// must fully explore (~1.5k interned subset-states, no early
// counterexample exit) — long enough that the per-state instrumentation
// cost is what the benchmark measures, not fixed setup.
func traceBenchInstance() (*regex.Expr, *regex.Expr) {
	hard := regex.MustParse(automata.AntichainHardExpr(8))
	return hard, hard
}

// BenchmarkTraceDisabledOverhead bounds the cost of the observability
// instrumentation on the two hot loops it touches. The "untraced" runs
// go through the exact instrumented code paths with no span in the
// context — the nil-span fast path the acceptance criterion caps at
// < 5% overhead (compare untraced ns/op against the pre-instrumentation
// numbers of the same benchmarks, or against "traced" to see the full
// cost of enabling). The untraced runs must also report 0 extra
// allocs/op from tracing: StartSpan returns the context unchanged and
// every Counter is nil.
func BenchmarkTraceDisabledOverhead(b *testing.B) {
	e1, e2 := traceBenchInstance()
	b.Run("containment/untraced", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if ok, err := automata.ContainsCtx(ctx, e1, e2); err != nil || !ok {
				b.Fatalf("ContainsCtx = %v, %v", ok, err)
			}
		}
	})
	b.Run("containment/traced", func(b *testing.B) {
		b.ReportAllocs()
		tr := &obs.Tracer{}
		for i := 0; i < b.N; i++ {
			ctx, root := tr.StartRoot(context.Background(), "bench")
			if ok, err := automata.ContainsCtx(ctx, e1, e2); err != nil || !ok {
				b.Fatalf("ContainsCtx = %v, %v", ok, err)
			}
			root.Finish()
		}
	})
	cfg := core.Config{Workers: 1, ScaleDiv: benchScale, Seed: 1}
	b.Run("ingest/untraced", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			core.RunLogStudy(ctx, cfg)
		}
	})
	b.Run("ingest/traced", func(b *testing.B) {
		tr := &obs.Tracer{}
		for i := 0; i < b.N; i++ {
			ctx, root := tr.StartRoot(context.Background(), "bench")
			core.RunLogStudy(ctx, cfg)
			root.Finish()
		}
	})
}

// TestTraceDisabledOverheadBudget is the testable half of the < 5%
// claim: the tracing primitives on the disabled path — exactly what the
// instrumented hot loops execute when no span is in the context — are
// allocation-free outright.
func TestTraceDisabledOverheadBudget(t *testing.T) {
	ctx := context.Background()
	var span *obs.Span
	c := span.Counter("x")
	if allocs := testing.AllocsPerRun(100, func() {
		ctx2, s := obs.StartSpan(ctx, "noop")
		if ctx2 != ctx || s != nil {
			t.Fatal("disabled StartSpan must return ctx unchanged and nil span")
		}
		c.Inc()
		s.Count("y", 1)
		s.SetAttr("k", "v")
		s.Finish()
	}); allocs != 0 {
		t.Fatalf("disabled-path tracing allocates %v per op, want 0", allocs)
	}
}
