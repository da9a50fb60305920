package automata

// Antichain containment engine. Deciding L(n1) ⊆ L(e2) classically
// determinizes e2 eagerly (2^n subset states up front, see
// DeterminizeCtx) and then searches the product with the complement.
// This engine instead explores the product of n1 with the subset
// automaton of e2 lazily, on word-packed interned bitsets, and prunes
// with the antichain order of De Wulf–Doyen–Henzinger–Raskin
// ("Antichains: A New Algorithm for Checking Universality of Finite
// Automata", CAV 2006), adapted to containment:
//
// A product pair (q, S) — q an NFA state of the left side, S a
// subset-state of the right side — is a counterexample seed iff some
// word v takes q to a final left state while δ(S, v) contains no final
// right state. Since δ is monotone in S (S ⊆ S' ⇒ δ(S,v) ⊆ δ(S',v)),
// any counterexample reachable through (q, S') with S ⊆ S' is also
// reachable through (q, S): smaller right-side sets reject more. So per
// left state q it suffices to keep the ⊆-minimal frontier of reachable
// subset-states — an antichain. A new pair whose subset-state is a
// superset of a kept one is discarded outright, and kept pairs whose
// subset-state is a superset of a new one are evicted. Discarding is
// sound (the kept smaller set preserves every counterexample) and
// complete (we only ever drop pairs whose counterexamples survive
// elsewhere), so the verdict is exactly that of the classic engine —
// which is retained as ContainsClassic/ContainsClassicCtx and pitted
// against this engine by the antichain-containment oracle.
//
// Under a traced context the "automata.contains" span accounts:
//
//	states_expanded  — distinct right-side subset-states materialized
//	                   (lazily; the classic engine's determinize span
//	                   counts all 2^n reachable ones up front)
//	product_states   — product pairs (q, S) expanded
//	antichain_pruned — candidate pairs discarded or evicted by the
//	                   subsumption order

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/automata/bitset"
	"repro/internal/obs"
	"repro/internal/regex"
)

// pairItem is one product worklist entry: left NFA state q against the
// interned right subset-state sid.
type pairItem struct {
	q   int
	sid int
}

// containsAntichainCtx decides L(c1) ⊆ L(c2). Both sides must be
// compiled against one label table, interned in full before either side
// sized its rows, so the two agree on every label id.
func containsAntichainCtx(ctx context.Context, c1, c2 *compiledNFA) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "automata.contains")
	defer span.Finish()
	span.SetAttr("engine", "antichain")
	// The amortized canceler only fires every checkEvery iterations;
	// small instances finish before the first checkpoint, so honor an
	// already-dead context up front.
	if err := ctx.Err(); err != nil {
		return false, err
	}
	statesExpanded := span.Counter("states_expanded")
	productStates := span.Counter("product_states")
	pruned := span.Counter("antichain_pruned")

	interner := bitset.NewInterner(c2.numStates)
	var (
		accepting []bool            // per sid: does the set contain a right-final state?
		setByID   []bitset.StateSet // lock-free mirror of the interner for this (single-goroutine) search
	)
	intern := func(s bitset.StateSet) int {
		sid, fresh := interner.Intern(s)
		if fresh {
			statesExpanded.Inc()
			accepting = append(accepting, s.Intersects(c2.final))
			setByID = append(setByID, interner.Set(sid))
		}
		return sid
	}

	// chains[q] is the ⊆-minimal antichain of subset-state ids paired
	// with left state q.
	chains := make([][]int, c1.numStates)
	var stack []pairItem

	// offer runs the counterexample check and the antichain insertion
	// for a candidate pair; it reports a counterexample via the bool.
	offer := func(q, sid int) bool {
		if c1.final.Has(q) && !accepting[sid] {
			return true // word in L(n1) \ L(n2)
		}
		// Single pass: "some kept t ⊆ s" (discard the candidate) and
		// "s ⊂ some kept t" (evict t) are mutually exclusive across the
		// whole chain — t ⊆ s and s ⊆ t' would give t ⊆ t', impossible
		// between distinct antichain members — so in-place filtering
		// cannot lose entries before a discard is discovered.
		s := setByID[sid]
		keep := chains[q][:0]
		for _, t := range chains[q] {
			ts := setByID[t]
			if ts.SubsetOf(s) {
				pruned.Inc() // subsumed by a smaller (or equal) kept set
				return false
			}
			if s.SubsetOf(ts) {
				pruned.Inc() // evicted: the new smaller set dominates it
				continue
			}
			keep = append(keep, t)
		}
		chains[q] = append(keep, sid)
		stack = append(stack, pairItem{q, sid})
		return false
	}

	s0 := intern(c2.initialSet())
	for _, q := range c1.initial {
		if offer(q, s0) {
			return false, nil
		}
	}

	next := bitset.New(c2.numStates)
	cc := newCanceler(ctx, span)
	for len(stack) > 0 {
		if err := cc.checkpoint(); err != nil {
			return false, err
		}
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Skip pairs evicted from the frontier after being queued: any
		// counterexample through them survives via the evicting pair.
		if !containsID(chains[it.q], it.sid) {
			continue
		}
		productStates.Inc()
		set := setByID[it.sid]
		for l, succs := range c1.row(it.q) {
			if len(succs) == 0 {
				continue
			}
			c2.step(set, l, next)
			sid2 := intern(next)
			for _, q2 := range succs {
				if offer(q2, sid2) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

func containsID(ids []int, id int) bool {
	for _, t := range ids {
		if t == id {
			return true
		}
	}
	return false
}

// AntichainHardExpr renders the calibrated adversarial family
//
//	(a|b)* (a (a|b)^k a | b (a|b)^k b)
//
// — "the letter k+1 positions before the last equals the last". Its
// reachable subset-states encode the full trailing window of k letters
// with a separate position for 'a' and for 'b' at every offset, so any
// two distinct windows are ⊆-incomparable and antichain pruning never
// fires: self-containment of this family is exponential for the lazy
// engine too (and quadratically worse for the classic one). The
// deadline/504 tests and the load generator use it as the instance
// that must time out; k = 16 needs tens of seconds on 2025 hardware
// while staying small on the wire.
func AntichainHardExpr(k int) string {
	mid := strings.Repeat("(a|b) ", k)
	return fmt.Sprintf("(a|b)* (a %sa | b %sb)", mid, mid)
}

// ContainsClassic is the retained reference implementation of Contains:
// eager subset construction of e2 (DeterminizeCtx), complementation,
// and a product emptiness search — the textbook PSPACE procedure the
// antichain engine is differentially tested against.
func ContainsClassic(e1, e2 *regex.Expr) bool {
	ok, _ := ContainsClassicCtx(context.Background(), e1, e2)
	return ok
}
