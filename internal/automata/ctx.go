package automata

// Context-aware variants of the decision procedures. Containment is
// PSPACE-complete (Section 4.2.2) and the subset/product constructions
// can explode exponentially on adversarial inputs, so a server cannot
// call them on untrusted requests without a way to abort: the *Ctx
// functions check ctx between hot-loop iterations and return ctx.Err()
// once the deadline passes or the caller cancels. The context-free
// entry points (Contains, Determinize, …) are thin wrappers over these
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
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/regex"
)

// checkEvery is the number of hot-loop iterations between context
// checks. Iterations are sub-microsecond, so a canceled computation
// stops within tens of microseconds while the steady-state overhead
// stays negligible.
const checkEvery = 256

// canceler amortizes ctx.Err() checks over checkEvery iterations and
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

func (c *canceler) checkpoint() error {
	c.tick++
	if c.tick < checkEvery {
		return nil
	}
	c.tick = 0
	c.checks.Inc()
	return c.ctx.Err()
}

// DeterminizeCtx is Determinize with cooperative cancellation: the
// subset construction — the exponential step of every containment and
// equivalence check — aborts with ctx.Err() once ctx is done. Under a
// traced context it records an "automata.determinize" span whose
// states_expanded counter is the number of subset states it
// materialized — the quantity the 2ⁿ blow-up bound of Section 4.2.1
// is about.
func DeterminizeCtx(ctx context.Context, n *NFA) (*DFA, error) {
	ctx, span := obs.StartSpan(ctx, "automata.determinize")
	defer span.Finish()
	expanded := span.Counter("states_expanded")
	key := func(set []int) string {
		var b strings.Builder
		for i, q := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", q)
		}
		return b.String()
	}
	init := append([]int(nil), n.Initial...)
	sort.Ints(init)
	index := map[string]int{key(init): 0}
	sets := [][]int{init}
	d := NewDFA(1)
	d.Alphabet = append([]string(nil), n.Alphabet...)
	cc := newCanceler(ctx, span)
	for i := 0; i < len(sets); i++ {
		if err := cc.checkpoint(); err != nil {
			return nil, err
		}
		expanded.Inc()
		set := sets[i]
		for _, q := range set {
			if n.Final[q] {
				d.Final[i] = true
				break
			}
		}
		// successor sets per label
		succ := map[string]map[int]bool{}
		for _, q := range set {
			for a, ps := range n.Trans[q] {
				m := succ[a]
				if m == nil {
					m = map[int]bool{}
					succ[a] = m
				}
				for _, p := range ps {
					m[p] = true
				}
			}
		}
		labels := make([]string, 0, len(succ))
		for a := range succ {
			labels = append(labels, a)
		}
		sort.Strings(labels)
		for _, a := range labels {
			m := succ[a]
			next := make([]int, 0, len(m))
			for p := range m {
				next = append(next, p)
			}
			sort.Ints(next)
			k := key(next)
			j, ok := index[k]
			if !ok {
				j = len(sets)
				index[k] = j
				sets = append(sets, next)
				d.Trans = append(d.Trans, map[string]int{})
				d.NumStates++
			}
			d.SetTransition(i, a, j)
		}
	}
	return d, nil
}

// ContainsCtx is Contains with cooperative cancellation. It lowers both
// sides straight from the syntax tree into position tables
// (compile.go) and runs the antichain engine (antichain.go): lazy,
// interned-bitset subset construction with subsumption pruning.
// ContainsClassicCtx retains the eager textbook construction as the
// differential reference. On cancellation the boolean is meaningless
// and the error is ctx.Err().
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

// ContainsClassicCtx is ContainsClassic with cooperative cancellation:
// eager determinization of e2, complementation over the union alphabet,
// and a DFS for a product state witnessing L(e1) \ L(e2) ≠ ∅.
func ContainsClassicCtx(ctx context.Context, e1, e2 *regex.Expr) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "automata.contains_classic")
	defer span.Finish()
	n1 := Glushkov(e1)
	alpha := unionAlpha(n1.Alphabet, e2.Alphabet())
	det, err := DeterminizeCtx(ctx, Glushkov(e2))
	if err != nil {
		return false, err
	}
	comp := det.Complement(alpha)
	type pair struct{ q, s int }
	seen := map[pair]bool{}
	var stack []pair
	for _, q := range n1.Initial {
		p := pair{q, 0}
		seen[p] = true
		stack = append(stack, p)
	}
	productStates := span.Counter("product_states")
	cc := newCanceler(ctx, span)
	for len(stack) > 0 {
		if err := cc.checkpoint(); err != nil {
			return false, err
		}
		productStates.Inc()
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n1.Final[p.q] && comp.Final[p.s] {
			return false, nil // witness in L(e1) \ L(e2)
		}
		for a, succs := range n1.Trans[p.q] {
			s2, ok := comp.Trans[p.s][a]
			if !ok {
				continue
			}
			for _, q2 := range succs {
				np := pair{q2, s2}
				if !seen[np] {
					seen[np] = true
					stack = append(stack, np)
				}
			}
		}
	}
	return true, nil
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
