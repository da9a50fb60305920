package automata

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/regex"
)

// TestContainsDecideColdAllocs bounds the allocations of a warm
// ContainsCtx on decide-cold-shaped pairs. It makes none: every table
// comes from the pooled decision. The bound of 1 leaves room for a
// garbage collection that empties the pool during the run.
func TestContainsDecideColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pairs := decideColdPairs(256)
	ctx := context.Background()
	i := 0
	decide := func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := ContainsCtx(ctx, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	for range pairs {
		decide()
	}
	if allocs := testing.AllocsPerRun(len(pairs), decide); allocs > 1 {
		t.Fatalf("warm ContainsCtx on decide-cold pairs: %v allocations per pair, want ≤ 1", allocs)
	}
}

// TestDecisionRetention checks the pool's size cap: a decision that
// lowered a ⊆ (a|…|a)* at n = 2,000 (~0.5 MB of follow rows) is not
// put back, while one that decided every decide-cold pair stays under
// the cap. Releasing a pooled decision drops its labels, which alias
// request input, up to each buffer's capacity: its last check has more
// labels on side 1 than on side 2, so side 1's are left past the
// length of the alphabet buffer.
func TestDecisionRetention(t *testing.T) {
	ctx := context.Background()
	wide := new(decision)
	ok, err := wide.containsMapped(ctx, regex.MustParse("a"), nil, regex.MustParse(wideUnionStar(2000)))
	if err != nil || !ok {
		t.Fatalf("a ⊆ (a|…|a)* = %v, %v", ok, err)
	}
	if wide.bytes() <= maxPooledBytes {
		t.Fatalf("wide decision holds %d bytes, want > %d", wide.bytes(), maxPooledBytes)
	}
	wide.release()
	got := decisions.Get().(*decision)
	if got == wide {
		t.Fatal("a decision over the cap came back out of the pool")
	}
	decisions.Put(got)

	small := new(decision)
	pairs := append(decideColdPairs(256), [2]*regex.Expr{regex.MustParse("x1 x2 x3 x4 x5 x6 x7 x8"), regex.MustParse("x1*")})
	for _, p := range pairs {
		if _, err := small.containsMapped(ctx, p[0], nil, p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if small.bytes() > maxPooledBytes {
		t.Fatalf("decide-cold decision holds %d bytes, want ≤ %d", small.bytes(), maxPooledBytes)
	}
	small.release()
	// small is in the pool, but no other goroutine of this test takes
	// from it, so reading it here races with nothing.
	for _, labels := range small.labelBuffers() {
		labels = labels[:cap(labels)]
		if i := slices.IndexFunc(labels, func(a string) bool { return a != "" }); i >= 0 {
			t.Fatalf("released decision still holds label %q", labels[i])
		}
	}
}

// decisionCase is one containment check of TestDecisionIsolation.
type decisionCase struct {
	e1, e2 *regex.Expr
	rename func(string) (string, bool)
}

// outcome renders the verdict and cost counters of c, decided in d
// when d is non-nil and through the pool otherwise.
func (c decisionCase) outcome(d *decision) string {
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	var ok bool
	var err error
	if d != nil {
		ok, err = d.containsMapped(ctx, c.e1, c.rename, c.e2)
	} else {
		ok, err = ContainsMappedCtx(ctx, c.e1, c.rename, c.e2)
	}
	root.Finish()
	n := root.Tree()
	return fmt.Sprintf("%v %v %v %d", ok, err, costCounters(n), sumCounter(n, "checkpoints"))
}

// TestDecisionIsolation decides checks of mixed sizes — decide-cold
// pairs, the antichain-hard family, a wide union over the pool's cap
// and label-mapped checks — back to back and from 4 goroutines at once
// through the pool, and requires the verdict and span counters a fresh
// decision gives each.
func TestDecisionIsolation(t *testing.T) {
	var cases []decisionCase
	merge := func(a string) (string, bool) {
		if a == "c" {
			return "b", true
		}
		return a, a != "d"
	}
	for i, p := range decideColdPairs(64) {
		cases = append(cases, decisionCase{p[0], p[1], nil})
		if i%4 == 0 {
			cases = append(cases, decisionCase{p[0], p[1], merge})
		}
		switch i % 16 {
		case 5:
			hard := regex.MustParse(AntichainHardExpr(4 + i%3))
			cases = append(cases, decisionCase{hard, hard, nil})
		case 11:
			cases = append(cases, decisionCase{regex.MustParse("a a"), regex.MustParse(wideUnionStar(1500)), nil})
		}
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = c.outcome(new(decision))
	}
	for i, c := range cases {
		if got := c.outcome(nil); got != want[i] {
			t.Fatalf("case %d (%s ⊆ %s): pooled %s, fresh %s", i, c.e1, shorten(c.e2), got, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/4) % len(cases)
				c := cases[i]
				if got := c.outcome(nil); got != want[i] {
					t.Errorf("goroutine %d, case %d (%s ⊆ %s): pooled %s, fresh %s", g, i, c.e1, shorten(c.e2), got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// shorten abbreviates the long alternations of the wide-union cases.
func shorten(e *regex.Expr) string {
	s := e.String()
	if len(s) > 80 {
		s = s[:80] + "…"
	}
	return s
}
