package automata

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/regex"
)

// TestContainsCtxRecordsSpans drives a containment check under a traced
// context and checks that the span tree carries the cost counters the
// explain mode and the flight recorder rely on. The instance is blowup-
// family self-containment: the verdict is true (no early counterexample
// exit), every subset-state is lazily interned, and the subsumption
// order actually fires, so all three engine counters are nonzero.
func TestContainsCtxRecordsSpans(t *testing.T) {
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	e := adversarialRight(8)
	ok, err := ContainsCtx(ctx, e, e)
	if err != nil || !ok {
		t.Fatalf("self-containment = %v, %v", ok, err)
	}
	root.Finish()
	tree := root.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "automata.contains" {
		t.Fatalf("children = %+v, want one automata.contains span", tree.Children)
	}
	contains := tree.Children[0]
	if contains.Attrs["engine"] != "antichain" {
		t.Fatalf("engine attr = %q, want antichain", contains.Attrs["engine"])
	}
	for _, c := range []string{"states_expanded", "product_states", "antichain_pruned"} {
		if contains.Counters[c] == 0 {
			t.Fatalf("%s = 0, want > 0: %+v", c, contains.Counters)
		}
	}
	// The whole point of the lazy engine: it must intern far fewer than
	// the 2^9 subset states the eager construction materializes here.
	if got := contains.Counters["states_expanded"]; got >= 1<<9 {
		t.Fatalf("states_expanded = %d, want < 2^9 (lazy engine)", got)
	}
	if len(contains.Children) != 0 {
		t.Fatalf("contains children = %+v, want none (no eager determinize)", contains.Children)
	}
}

// TestDeterminizeCtxRecordsSpan pins the subset construction's span:
// an automata.determinize span accounting all 2^n subset states.
func TestDeterminizeCtxRecordsSpan(t *testing.T) {
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	if _, err := determinizeCtx(ctx, NewMatcher(adversarialRight(6))); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	tree := root.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "automata.determinize" {
		t.Fatalf("children = %+v, want one automata.determinize span", tree.Children)
	}
	// The subset construction for (a|b)* a (a|b)^6 materializes 2^6 = 64
	// reachable subset states (plus the initial one); every one of them
	// must have been accounted.
	if det := tree.Children[0]; det.Counters["states_expanded"] < 64 {
		t.Fatalf("states_expanded = %d, want >= 64", det.Counters["states_expanded"])
	}
}

// TestContainsUntracedStillWorks pins the disabled path: no tracer in
// the context means no spans, and the verdict is unchanged.
func TestContainsUntracedStillWorks(t *testing.T) {
	e1, e2 := regex.MustParse("a b"), regex.MustParse("a (b|c)")
	ok, err := ContainsCtx(context.Background(), e1, e2)
	if err != nil || !ok {
		t.Fatalf("ContainsCtx = %v, %v", ok, err)
	}
	if obs.FromContext(context.Background()) != nil {
		t.Fatal("background context must carry no span")
	}
}

// TestIntersectionWitnessCtxRecordsSpan checks the intersection BFS
// accounts its tuple expansions.
func TestIntersectionWitnessCtxRecordsSpan(t *testing.T) {
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	es := []*regex.Expr{regex.MustParse("(a|b)* a"), regex.MustParse("a (a|b)*")}
	if _, ok, err := IntersectionWitnessCtx(ctx, es...); err != nil || !ok {
		t.Fatalf("intersection = %v, %v", ok, err)
	}
	root.Finish()
	tree := root.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "automata.intersection" {
		t.Fatalf("children = %+v", tree.Children)
	}
	if tree.Children[0].Counters["tuples_expanded"] == 0 {
		t.Fatal("tuples_expanded = 0, want > 0")
	}
}
