package automata

// Antichain containment engine. Deciding L(n1) ⊆ L(e2) classically
// determinizes e2 eagerly (2^n subset states up front, see
// determinizeCtx) and then searches the product with the complement.
// This engine instead explores the product of n1 with the subset
// automaton of e2 lazily, on word-packed bitsets interned in a
// search-local table, and prunes with the antichain order of De
// Wulf–Doyen–Henzinger–Raskin ("Antichains: A New Algorithm for
// Checking Universality of Finite Automata", CAV 2006), adapted to
// containment:
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
// Both sides are position tables (compile.go). Expanding a pair (q, S)
// takes U = ∪_{p∈S} follow₂[p] once; then for each label l, in id
// order, the left successors are follow₁[q] ∩ pos₁[l] and the right
// subset-state is U ∩ pos₂[l].
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

// chainNode is one member of a left state's antichain: a subset-state
// id and 1 + the next node, 0 at the end.
type chainNode struct{ sid, next int32 }

// pairItem is one product worklist entry: left NFA state q against the
// interned right subset-state sid.
type pairItem struct {
	q   int
	sid int
}

// setTable interns the subset-states of one search: equal sets get one
// dense id. The sets live in fixed-size chunks of one word slab that
// are never copied as the table grows, and the hash index is a bucket
// head per slot plus a next-id chain, so the table holds no pointers
// besides its chunk list.
type setTable struct {
	words  int
	shift  uint       // 1<<shift sets per chunk
	chunks [][]uint64 // set id lives in chunks[id>>shift]
	hashes []uint64   // by id
	next   []int32    // by id: 1 + the next id in its bucket, 0 ends the chain
	heads  []int32    // by bucket: 1 + the first id, 0 when empty
}

// chunkWords is the slab size a chunk aims at: small enough that a
// search interning a handful of one-word sets uses little, large enough
// that big searches add chunks rarely.
const chunkWords = 128

// reset empties t for sets of the given number of words. It keeps t's
// chunks for reuse; their words are overwritten as sets are interned.
func (t *setTable) reset(words int) {
	t.words, t.shift = words, 0
	for words<<(t.shift+1) <= chunkWords {
		t.shift++
	}
	t.chunks = t.chunks[:0]
	t.hashes = t.hashes[:0]
	t.next = t.next[:0]
	t.heads = resize(t.heads, 16)
}

func (t *setTable) len() int { return len(t.hashes) }

// set returns the set with the given id. It is shared and must not be
// mutated.
func (t *setTable) set(id int) bitset.StateSet {
	off := (id & (1<<t.shift - 1)) * t.words
	return t.chunks[id>>t.shift][off : off+t.words : off+t.words]
}

// intern returns the id of s, copying s into the table the first time
// this set is seen; fresh reports that case.
func (t *setTable) intern(s bitset.StateSet) (id int, fresh bool) {
	h := hashWords(s)
	mask := uint64(len(t.heads) - 1)
	for i := t.heads[h&mask]; i != 0; i = t.next[i-1] {
		if id := int(i - 1); t.hashes[id] == h && t.set(id).Equal(s) {
			return id, false
		}
	}
	id = t.len()
	if id&(1<<t.shift-1) == 0 {
		t.addChunk()
	}
	copy(t.set(id), s)
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, t.heads[h&mask])
	t.heads[h&mask] = int32(id + 1)
	if t.len() > len(t.heads) {
		t.rehash()
	}
	return id, true
}

// addChunk appends a chunk, reusing one an earlier search left past
// the end of chunks when it is large enough.
func (t *setTable) addChunk() {
	size := t.words << t.shift
	if k := len(t.chunks); k < cap(t.chunks) {
		if spare := t.chunks[:k+1][k]; cap(spare) >= size {
			t.chunks = append(t.chunks, spare[:size])
			return
		}
	}
	t.chunks = append(t.chunks, make([]uint64, size))
}

// rehash doubles the bucket count and rethreads every chain.
func (t *setTable) rehash() {
	t.heads = resize(t.heads, 2*len(t.heads))
	mask := uint64(len(t.heads) - 1)
	for id, h := range t.hashes {
		t.next[id] = t.heads[h&mask]
		t.heads[h&mask] = int32(id + 1)
	}
}

// hashWords mixes every word of s into 64 bits.
func hashWords(s []uint64) uint64 {
	h := uint64(len(s))
	for _, w := range s {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// containsAntichainCtx decides L(c1) ⊆ L(c2) in the tables of sc. Both
// sides must share one label table, and c2's pos rows must cover every
// label id of c1.
func containsAntichainCtx(ctx context.Context, c1, c2 *posNFA, sc *antichainScratch) (bool, error) {
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

	sets := &sc.sets
	sets.reset(c2.words)
	accepting := sc.accepting[:0] // per sid: does the set contain a right-final state?
	intern := func(s bitset.StateSet) int {
		sid, fresh := sets.intern(s)
		if fresh {
			statesExpanded.Inc()
			accepting = append(accepting, s.Intersects(c2.final))
		}
		return sid
	}

	// The ⊆-minimal antichain of subset-state ids paired with left
	// state q is a list threaded through one node slab from heads[q].
	heads := resize(sc.heads, c1.numStates) // 1 + the first node, 0 when empty
	nodes := sc.nodes[:0]
	stack := sc.stack[:0]
	next := resize(sc.next, c2.words)
	union := resize(sc.union, c2.words)
	succ := resize(sc.succ, c1.words)
	defer func() {
		sc.accepting, sc.heads, sc.nodes, sc.stack = accepting, heads, nodes, stack
		sc.next, sc.union, sc.succ = next, union, succ
	}()

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
		s := sets.set(sid)
		for link := &heads[q]; *link != 0; {
			n := &nodes[*link-1]
			ts := sets.set(int(n.sid))
			if ts.SubsetOf(s) {
				pruned.Inc() // subsumed by a smaller (or equal) kept set
				return false
			}
			if s.SubsetOf(ts) {
				pruned.Inc() // evicted: the new smaller set dominates it
				*link = n.next
				continue
			}
			link = &n.next
		}
		nodes = append(nodes, chainNode{int32(sid), heads[q]})
		heads[q] = int32(len(nodes))
		stack = append(stack, pairItem{q, sid})
		return false
	}

	for _, q := range c2.initial {
		next.Add(q)
	}
	s0 := intern(next)
	for _, q := range c1.initial {
		if offer(q, s0) {
			return false, nil
		}
	}

	cc := newCanceler(ctx, span)
	for len(stack) > 0 {
		if err := cc.checkpoint(); err != nil {
			return false, err
		}
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Skip pairs evicted from the frontier after being queued: any
		// counterexample through them survives via the evicting pair.
		if !inChain(nodes, heads[it.q], it.sid) {
			continue
		}
		productStates.Inc()
		follow := c1.followRow(it.q)
		if follow.Empty() {
			continue
		}
		union.Clear()
		set := sets.set(it.sid)
		for p := set.Next(0); p >= 0; p = set.Next(p + 1) {
			union.UnionWith(c2.followRow(p))
		}
		for l := 0; l < c1.width; l++ {
			if !succ.And(follow, c1.posRow(l)) {
				continue
			}
			next.And(union, c2.posRow(l))
			sid2 := intern(next)
			for q2 := succ.Next(0); q2 >= 0; q2 = succ.Next(q2 + 1) {
				if offer(q2, sid2) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// inChain reports whether the chain starting at head holds sid.
func inChain(nodes []chainNode, head int32, sid int) bool {
	for i := head; i != 0; i = nodes[i-1].next {
		if int(nodes[i-1].sid) == sid {
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
// eager subset construction of e2 (determinizeCtx), complementation,
// and a product emptiness search — the textbook PSPACE procedure the
// antichain engine is differentially tested against.
func ContainsClassic(e1, e2 *regex.Expr) bool {
	ok, _ := ContainsClassicCtx(context.Background(), e1, e2)
	return ok
}
