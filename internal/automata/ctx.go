package automata

// Context-aware variants of the decision procedures. Containment is
// PSPACE-complete (Section 4.2.2) and the subset/product constructions
// can explode exponentially on adversarial inputs, so a server cannot
// call them on untrusted requests without a way to abort: the *Ctx
// functions check ctx between hot-loop iterations and return ctx.Err()
// once the deadline passes or the caller cancels. The context-free
// entry points (Contains, ToDFA, …) are thin wrappers over these
// with context.Background(), whose Err is a constant nil — the
// checkpoint then costs one counter increment plus a predictable
// branch, which benchmarks put well under 5% (BenchmarkContainsCtx).
//
// The searches and Matcher.Accepts check ctx. The lowering ContainsCtx
// runs first (compile.go) has no checkpoint: it ORs whole bitset rows,
// so the 8,000-alternative (a|…|a)* of a 16 KB request lowers in a few
// milliseconds (TestContainsWideUnionAllocBound).

import (
	"context"
	"encoding/binary"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/internal/regex"
)

// checkEvery is the number of units of work between context checks. A
// unit is one hot-loop iteration, or one state a Matcher step reads, so
// a canceled computation stops within tens of microseconds of cheap
// iterations, or within one step over a set of thousands of states,
// while the steady-state overhead stays negligible.
const checkEvery = 256

// canceler amortizes ctx.Err() checks over checkEvery units and
// accounts each check to the enclosing span's "checkpoints" counter
// (nil and free when tracing is disabled).
type canceler struct {
	ctx    context.Context
	tick   int
	checks *obs.Counter
}

func newCanceler(ctx context.Context, span *obs.Span) *canceler {
	return &canceler{ctx: ctx, checks: span.Counter("checkpoints")}
}

func (c *canceler) checkpoint() error { return c.checkpointN(1) }

// checkpointN counts n units of work and checks ctx once checkEvery
// have passed since the last check.
func (c *canceler) checkpointN(n int) error {
	c.tick += n
	if c.tick < checkEvery {
		return nil
	}
	c.tick = 0
	c.checks.Inc()
	return c.ctx.Err()
}

// determinizeCtx applies the subset construction to the automaton of m,
// producing a partial DFA over m's alphabet whose states are the
// reachable state sets, and aborts with ctx.Err() once ctx is done.
// Positions with the same follow set and finality are merged first
// (followClasses), so a DFA state is a sorted list of classes, and the
// successors of a state on each label come from the to runs of the
// products its classes hit. Under a traced context it records an
// "automata.determinize" span whose states_expanded counter is the
// number of state sets it materialized — the quantity the 2ⁿ blow-up
// bound of Section 4.2.1 is about.
func determinizeCtx(ctx context.Context, m *Matcher) (*DFA, error) {
	ctx, span := obs.StartSpan(ctx, "automata.determinize")
	defer span.Finish()
	expanded := span.Counter("states_expanded")
	class, rep := m.followClasses()
	d := &DFA{Alphabet: slices.Clone(m.labels)}
	index := map[string]int{}
	var sets [][]int32 // by DFA state: its sorted classes
	var key []byte
	intern := func(set []int32) int {
		key = key[:0]
		for _, c := range set {
			key = binary.LittleEndian.AppendUint32(key, uint32(c))
		}
		if j, ok := index[string(key)]; ok {
			return j
		}
		index[string(key)] = len(sets)
		sets = append(sets, slices.Clone(set))
		d.Final = append(d.Final, false)
		for range d.Alphabet {
			d.Next = append(d.Next, -1)
		}
		return len(sets) - 1
	}
	intern([]int32{class[0]})
	var ks, next []int32
	var hits []uint64 // label id << 32 | class of each target
	cc := newCanceler(ctx, span)
	for i := 0; i < len(sets); i++ {
		if err := cc.checkpoint(); err != nil {
			return nil, err
		}
		expanded.Inc()
		ks = ks[:0]
		for _, c := range sets[i] {
			q := rep[c]
			if m.final.Has(int(q)) {
				d.Final[i] = true
			}
			ks = append(ks, m.in[m.inOff[q]:m.inOff[q+1]]...)
		}
		slices.Sort(ks)
		hits = hits[:0]
		for _, k := range slices.Compact(ks) {
			for _, p := range m.to[m.toOff[k]:m.toOff[k+1]] {
				hits = append(hits, uint64(m.lab[p])<<32|uint64(class[p]))
			}
		}
		slices.Sort(hits)
		hits = slices.Compact(hits)
		for lo, hi := 0, 0; lo < len(hits); lo = hi {
			next = next[:0]
			for ; hi < len(hits) && hits[hi]>>32 == hits[lo]>>32; hi++ {
				next = append(next, int32(uint32(hits[hi])))
			}
			j := intern(next)
			d.Next[i*len(d.Alphabet)+int(hits[lo]>>32)] = j
		}
	}
	return d, nil
}

// followClasses numbers the follow classes of m's states. Two states
// that are sources of the same products and agree on finality have the
// same follow set, and so the same future; merging them yields the
// follow automaton of Ilie & Yu ("Follow automata", Information and
// Computation, 2003). class[q] is the class of q, numbered in order of
// first state, and rep[c] is the first state of class c.
func (m *Matcher) followClasses() (class, rep []int32) {
	class = make([]int32, len(m.lab))
	ids := map[string]int32{}
	var key []byte
	for q := range m.lab {
		key = append(key[:0], 0)
		if m.final.Has(q) {
			key[0] = 1
		}
		for _, k := range m.in[m.inOff[q]:m.inOff[q+1]] {
			key = binary.LittleEndian.AppendUint32(key, uint32(k))
		}
		c, ok := ids[string(key)]
		if !ok {
			c = int32(len(rep))
			ids[string(key)] = c
			rep = append(rep, int32(q))
		}
		class[q] = c
	}
	return class, rep
}

// ContainsCtx is Contains with cooperative cancellation. It lowers both
// sides straight from the syntax tree into position tables
// (compile.go) and runs the antichain engine (antichain.go): lazy,
// interned-bitset subset construction with subsumption pruning. On
// cancellation the boolean is meaningless and the error is ctx.Err().
func ContainsCtx(ctx context.Context, e1, e2 *regex.Expr) (bool, error) {
	return ContainsMappedCtx(ctx, e1, nil, e2)
}

// ContainsMappedCtx is ContainsCtx with the labels of e1 read through
// rename: a symbol a of e1 reads as b when rename(a) = (b, true) and as
// ∅ when rename rejects it. With R the labels rename keeps, it decides
// rename(L(e1) ∩ R*) ⊆ L(e2), the check the schema layers make on a
// content model restricted to realizable labels (dtd) or projected from
// types to labels (edtd). A nil rename is the identity.
func ContainsMappedCtx(ctx context.Context, e1 *regex.Expr, rename func(string) (string, bool), e2 *regex.Expr) (bool, error) {
	d := decisions.Get().(*decision)
	defer d.release()
	return d.containsMapped(ctx, e1, rename, e2)
}

// containsMapped is ContainsMappedCtx in the buffers of d.
func (d *decision) containsMapped(ctx context.Context, e1 *regex.Expr, rename func(string) (string, bool), e2 *regex.Expr) (bool, error) {
	c1, syms1 := lowerExpr(e1, &d.sides[0])
	c2, syms2 := lowerExpr(e2, &d.sides[1])
	if rename != nil {
		for i, a := range syms1 {
			if b, ok := rename(a); ok {
				syms1[i] = b
			} else {
				syms1[i] = "" // no pos bit: nothing enters the position
			}
		}
	}
	// Number both alphabets before binding either side, so the pos
	// rows of each automaton cover the union alphabet.
	d.labels.reset()
	d.alpha = appendAlphabet(d.alpha, syms1)
	d.labels.add(d.alpha)
	d.alpha = appendAlphabet(d.alpha, syms2)
	d.labels.add(d.alpha)
	c1.bindLabels(syms1, &d.labels)
	c2.bindLabels(syms2, &d.labels)
	return containsAntichainCtx(ctx, c1, c2, &d.search)
}

// IntersectionWitnessCtx returns a shortest word in the intersection of
// the languages, or (nil, false) if the intersection is empty. It runs a
// BFS over tuples of state sets of the expressions' Matchers, one step
// per component and label, checking ctx between label expansions.
func IntersectionWitnessCtx(ctx context.Context, es ...*regex.Expr) ([]string, bool, error) {
	if len(es) == 0 {
		return []string{}, true, nil
	}
	ctx, span := obs.StartSpan(ctx, "automata.intersection")
	defer span.Finish()
	tuples := span.Counter("tuples_expanded")
	ms := make([]*Matcher, len(es))
	for i, e := range es {
		ms[i] = NewMatcher(e)
	}
	key := func(tuple [][]int32) string {
		var b []byte
		for _, set := range tuple {
			for _, q := range set {
				b = append(strconv.AppendInt(b, int64(q), 10), ',')
			}
			b = append(b, ';')
		}
		return string(b)
	}
	start := make([][]int32, len(ms))
	for i, m := range ms {
		start[i] = m.Start()
	}
	allFinal := func(tuple [][]int32) bool {
		for i, set := range tuple {
			if !ms[i].AnyFinal(set) {
				return false
			}
		}
		return true
	}
	// BFS items record only a parent index and the label that reached
	// them; the witness word is reconstructed once at the end, so total
	// allocation stays linear in the witness length
	// (TestIntersectionWitnessAllocBound).
	type item struct {
		tuple  [][]int32
		parent int
		label  string
	}
	seen := map[string]bool{key(start): true}
	items := []item{{start, -1, ""}}
	if allFinal(start) {
		return []string{}, true, nil
	}
	witness := func(i int) []string {
		var n int
		for j := i; j > 0; j = items[j].parent {
			n++
		}
		w := make([]string, n)
		for j := i; j > 0; j = items[j].parent {
			n--
			w[n] = items[j].label
		}
		return w
	}
	// candidate labels: intersection of alphabets
	labels := ms[0].labels
	for _, m := range ms[1:] {
		labels = intersectSorted(labels, m.labels)
	}
	cc := newCanceler(ctx, span)
	for head := 0; head < len(items); head++ {
		tuple := items[head].tuple
		tuples.Inc()
	next:
		for _, a := range labels {
			if err := cc.checkpoint(); err != nil {
				return nil, false, err
			}
			succ := make([][]int32, len(ms))
			for i, set := range tuple {
				if succ[i] = ms[i].Step(set, a); len(succ[i]) == 0 {
					continue next
				}
			}
			k := key(succ)
			if seen[k] {
				continue
			}
			seen[k] = true
			items = append(items, item{succ, head, a})
			if allFinal(succ) {
				return witness(len(items) - 1), true, nil
			}
		}
	}
	return nil, false, nil
}
