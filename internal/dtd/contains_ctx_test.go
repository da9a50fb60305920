package dtd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/regex"
)

// adversarialDTDs builds a containment instance whose per-label regex
// check requires a 2^n subset construction.
func adversarialDTDs(n int) (*DTD, *DTD) {
	var b strings.Builder
	b.WriteString("(a|b)* a")
	for i := 0; i < n; i++ {
		b.WriteString(" (a|b)")
	}
	d1 := New().AddStart("r").
		AddRule("r", regex.MustParse("(a|b)*")).
		AddRule("a", regex.NewEpsilon()).
		AddRule("b", regex.NewEpsilon())
	d2 := New().AddStart("r").
		AddRule("r", regex.MustParse(b.String())).
		AddRule("a", regex.NewEpsilon()).
		AddRule("b", regex.NewEpsilon())
	return d1, d2
}

func TestContainsCtxAgreesWithContains(t *testing.T) {
	d1, d2 := adversarialDTDs(4) // small enough to decide exactly
	want := Contains(d1, d2)
	got, err := ContainsCtx(context.Background(), d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ContainsCtx = %v, Contains = %v", got, want)
	}
	// and a positive instance
	ok, err := ContainsCtx(context.Background(), d2, d1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("d2 ⊆ d1 should hold: every word of d2's root rule is in (a|b)*")
	}
}

// hardDTDs builds a containment instance whose root-rule check is
// self-containment of the antichain-hard family — the shape the lazy
// engine cannot prune, so the per-label check stays exponential.
func hardDTDs(k int) (*DTD, *DTD) {
	rule := func() *regex.Expr { return regex.MustParse(automata.AntichainHardExpr(k)) }
	d1 := New().AddStart("r").
		AddRule("r", rule()).
		AddRule("a", regex.NewEpsilon()).
		AddRule("b", regex.NewEpsilon())
	d2 := New().AddStart("r").
		AddRule("r", rule()).
		AddRule("a", regex.NewEpsilon()).
		AddRule("b", regex.NewEpsilon())
	return d1, d2
}

func TestContainsCtxDeadlineAbortsHardFamily(t *testing.T) {
	d1, d2 := hardDTDs(16)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ContainsCtx(ctx, d1, d2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 500ms", elapsed)
	}
}

// TestContainsAgreesOnHardFamily pins the verdict at a decidable size.
func TestContainsAgreesOnHardFamily(t *testing.T) {
	d1, d2 := hardDTDs(4)
	ok, err := ContainsCtx(context.Background(), d1, d2)
	if err != nil || !ok {
		t.Fatalf("hard-family self-containment = %v, %v, want true", ok, err)
	}
}

func TestContainsCtxPreCanceled(t *testing.T) {
	d1, d2 := adversarialDTDs(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ContainsCtx(ctx, d1, d2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestContainsAllocBound bounds the bytes that self-containment of two
// DTD families allocates. Both lower each content model once into
// position tables and read realizability off the syntax tree; building
// a map NFA per label instead cost 727 MB for the wide union and
// 476 MB for the ANY declarations. No wall-clock bound: CI runs -race.
func TestContainsAllocBound(t *testing.T) {
	var anys strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&anys, "<!ELEMENT e%d ANY>\n", i)
	}
	for _, c := range []struct {
		name, src string
		bound     uint64
	}{
		{"wide union, n = 2000", "<!ELEMENT r (" + strings.Repeat("a|", 1999) + "a)*> <!ELEMENT a EMPTY>", 32 << 20},
		{"100 ANY declarations", anys.String(), 64 << 20},
	} {
		d, err := ParseText(c.src, "")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ok, err := ContainsCtx(context.Background(), d, d)
		runtime.ReadMemStats(&after)
		if err != nil || !ok {
			t.Fatalf("%s: self-containment = %v, %v", c.name, ok, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > c.bound {
			t.Errorf("%s: allocated %d bytes, want <= %d MB", c.name, alloc, c.bound>>20)
		}
	}
}
