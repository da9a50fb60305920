package dtd

import (
	"context"
	"sort"

	"repro/internal/automata"
	"repro/internal/obs"
	"repro/internal/regex"
)

// Contains decides L(d1) ⊆ L(d2) — DTD containment, which Section 4.2.2
// notes "reduces to the same problems on regular expressions".
//
// The reduction: trim d1 to its reachable and realizable labels; then
// L(d1) ⊆ L(d2) iff every realizable start label of d1 is a start label of
// d2 and, for every trimmed label a, the realizable-restricted content
// language L(ρ1(a)) ∩ R* is contained in L(ρ2(a)). Soundness: any valid
// d1-tree's node uses such a word; completeness: a counterexample word at
// a reachable label extends to a full counterexample tree because all its
// labels are realizable in d1 (and validity in d2 would require the word
// in L(ρ2(a))).
func Contains(d1, d2 *DTD) bool {
	ok, _ := ContainsCtx(context.Background(), d1, d2)
	return ok
}

// ContainsCtx is Contains with cooperative cancellation: the per-label
// regular-expression containment checks (each PSPACE-hard in general)
// and the realizability fixpoint honor ctx, so a server can abort an
// adversarial instance at its deadline. On cancellation the boolean is
// meaningless and the error is ctx.Err().
func ContainsCtx(ctx context.Context, d1, d2 *DTD) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "dtd.contains")
	defer span.Finish()
	real, err := d1.realizableCtx(ctx)
	if err != nil {
		return false, err
	}
	labelsChecked := span.Counter("labels_checked")
	keep := func(b string) bool { return real[b] }
	restrict := func(b string) (string, bool) { return b, real[b] }
	// Walk the reachable ∩ realizable labels of d1 from its realizable
	// starts, checking each content language on the way.
	reachable := map[string]bool{}
	var stack []string
	for s := range d1.Start {
		if real[s] {
			if !d2.Start[s] {
				return false, nil // a valid single-root tree exists only under d1… unless not realizable
			}
			reachable[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		labelsChecked.Inc()
		e := d1.Rule(a)
		ok, err := automata.ContainsMappedCtx(ctx, e, restrict, d2.Rule(a))
		if err != nil || !ok {
			return false, err
		}
		useful, _ := e.Restrict(keep)
		for _, b := range useful {
			if !reachable[b] {
				reachable[b] = true
				stack = append(stack, b)
			}
		}
	}
	return true, nil
}

// IntersectionNonEmpty decides whether some tree is valid w.r.t. all the
// given DTDs (the Intersection problem lifted to DTDs). The construction
// intersects rule-wise: a tree valid for all DTDs must, at every node,
// satisfy every DTD's rule. A label is jointly realizable iff the
// intersection of its content languages, restricted to jointly
// realizable labels, is non-empty — the least fixpoint of Realizable,
// over the product content languages.
func IntersectionNonEmpty(ds ...*DTD) bool {
	if len(ds) == 0 {
		return true
	}
	alphaSet := map[string]bool{}
	for _, d := range ds {
		for _, a := range d.Alphabet() {
			alphaSet[a] = true
		}
	}
	alpha := make([]string, 0, len(alphaSet))
	for a := range alphaSet {
		alpha = append(alpha, a)
	}
	sort.Strings(alpha)
	real, _ := leastFixpoint(context.Background(), alpha, nil, func(a string, real map[string]bool) bool {
		// One more factor, (b1|…|bk)* over the jointly realizable
		// labels, restricts the product to them.
		var syms []*regex.Expr
		for _, b := range alpha {
			if real[b] {
				syms = append(syms, regex.NewSymbol(b))
			}
		}
		es := []*regex.Expr{regex.NewStar(regex.NewUnion(syms...))}
		for _, d := range ds {
			es = append(es, d.Rule(a))
		}
		_, ok, _ := automata.IntersectionWitnessCtx(context.Background(), es...)
		return ok
	})
	for s := range ds[0].Start {
		shared := real[s]
		for _, d := range ds[1:] {
			shared = shared && d.Start[s]
		}
		if shared {
			return true
		}
	}
	return false
}
