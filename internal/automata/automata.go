// Package automata implements finite automata over label alphabets: the
// Glushkov construction from regular expressions, subset construction,
// DFA minimization, Boolean operations, and the decision procedures
// (membership, emptiness, containment, equivalence, intersection
// non-emptiness) that underpin the complexity landscape of Sections 4.2
// and 9.6 of "Towards Theory for Real-World Data".
package automata

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/regex"
)

// NFA is a nondeterministic finite automaton without ε-transitions.
// States are 0..NumStates-1.
type NFA struct {
	NumStates int
	Initial   []int
	Final     map[int]bool
	// Trans[q][a] is the sorted set of successor states of q on label a.
	Trans []map[string][]int
	// Alphabet is the sorted set of labels with at least one transition,
	// possibly extended explicitly via WithAlphabet.
	Alphabet []string
}

// NewNFA returns an empty NFA with n states and no transitions.
func NewNFA(n int) *NFA {
	t := make([]map[string][]int, n)
	for i := range t {
		t[i] = map[string][]int{}
	}
	return &NFA{NumStates: n, Final: map[int]bool{}, Trans: t}
}

// AddTransition adds q --a--> p, keeping successor sets sorted and unique.
func (n *NFA) AddTransition(q int, a string, p int) {
	succ := n.Trans[q][a]
	i := sort.SearchInts(succ, p)
	if i < len(succ) && succ[i] == p {
		return
	}
	succ = append(succ, 0)
	copy(succ[i+1:], succ[i:])
	succ[i] = p
	n.Trans[q][a] = succ
	n.addLabel(a)
}

func (n *NFA) addLabel(a string) {
	i := sort.SearchStrings(n.Alphabet, a)
	if i < len(n.Alphabet) && n.Alphabet[i] == a {
		return
	}
	n.Alphabet = append(n.Alphabet, "")
	copy(n.Alphabet[i+1:], n.Alphabet[i:])
	n.Alphabet[i] = a
}

// WithAlphabet extends the automaton's alphabet (needed, e.g., before
// complementation so that both sides of a containment check agree).
func (n *NFA) WithAlphabet(labels []string) *NFA {
	for _, a := range labels {
		n.addLabel(a)
	}
	return n
}

// Glushkov constructs the position automaton of e: state 0 is initial,
// states 1..n correspond to the symbol occurrences of e in preorder
// (Section 4.2.1; the expression is deterministic in the sense of
// Brüggemann-Klein & Wood iff this automaton is deterministic).
func Glushkov(e *regex.Expr) *NFA {
	l := regex.Linearize(e)
	n := NewNFA(l.NumPositions() + 1)
	for _, p := range l.First {
		n.AddTransition(0, l.Sym(p), p)
	}
	for p, succs := range l.Follow {
		for _, q := range succs {
			n.AddTransition(p, l.Sym(q), q)
		}
	}
	n.Initial = []int{0}
	if l.Nullable {
		n.Final[0] = true
	}
	for _, p := range l.Last {
		n.Final[p] = true
	}
	// Make sure symbols of an empty-language subexpression still extend the
	// alphabet (they generate no transitions).
	n.WithAlphabet(e.Alphabet())
	return n
}

// IsDeterministic reports whether the NFA has a single initial state and at
// most one successor per state and label.
func (n *NFA) IsDeterministic() bool {
	if len(n.Initial) > 1 {
		return false
	}
	for _, m := range n.Trans {
		for _, succ := range m {
			if len(succ) > 1 {
				return false
			}
		}
	}
	return true
}

// Accepts reports whether the NFA accepts the word.
func (n *NFA) Accepts(word []string) bool {
	set := n.Start()
	for _, a := range word {
		if set = n.Step(set, a); len(set) == 0 {
			return false
		}
	}
	return n.AnyFinal(set)
}

// Start returns the initial state set of the on-the-fly subset
// simulation (Step, AnyFinal): the initial states, sorted and
// duplicate-free.
func (n *NFA) Start() []int {
	return sortedSet(append([]int(nil), n.Initial...))
}

// Step returns the states reached from set by one a-transition, sorted
// and duplicate-free. A simulated set never holds more than NumStates
// states, however long the word read so far.
func (n *NFA) Step(set []int, a string) []int {
	var next []int
	for _, q := range set {
		next = append(next, n.Trans[q][a]...)
	}
	return sortedSet(next)
}

// AnyFinal reports whether set contains a final state.
func (n *NFA) AnyFinal(set []int) bool {
	for _, q := range set {
		if n.Final[q] {
			return true
		}
	}
	return false
}

func sortedSet(s []int) []int {
	sort.Ints(s)
	return slices.Compact(s)
}

// Project returns the automaton whose transitions are n's with each
// label a renamed to f(a); transitions whose label f rejects are
// dropped. States, initial and final states are kept, so the result
// accepts the renamed words of n that use only labels f keeps.
func (n *NFA) Project(f func(a string) (string, bool)) *NFA {
	out := NewNFA(n.NumStates)
	out.Initial = append([]int(nil), n.Initial...)
	for q, final := range n.Final {
		out.Final[q] = final
	}
	for q, trans := range n.Trans {
		for a, ps := range trans {
			if b, ok := f(a); ok {
				for _, p := range ps {
					out.AddTransition(q, b, p)
				}
			}
		}
	}
	return out
}

// Restrict returns n without the transitions whose label is not in
// allowed: an automaton for L(n) ∩ allowed*.
func (n *NFA) Restrict(allowed map[string]bool) *NFA {
	return n.Project(func(a string) (string, bool) { return a, allowed[a] })
}

// UsefulLabels returns, sorted, the labels on the transitions of the
// trimmed automaton — those reachable from an initial state and
// co-reachable to a final one — which are exactly the labels occurring
// in some accepted word.
func (n *NFA) UsefulLabels() []string {
	succ, pred := make([][]int, n.NumStates), make([][]int, n.NumStates)
	for q, trans := range n.Trans {
		for _, ps := range trans {
			for _, p := range ps {
				succ[q] = append(succ[q], p)
				pred[p] = append(pred[p], q)
			}
		}
	}
	var finals []int
	for q, final := range n.Final {
		if final {
			finals = append(finals, q)
		}
	}
	reached, coreached := reach(succ, n.Initial), reach(pred, finals)
	set := map[string]bool{}
	for q, trans := range n.Trans {
		for a, ps := range trans {
			for _, p := range ps {
				if reached[q] && coreached[p] {
					set[a] = true
				}
			}
		}
	}
	labels := make([]string, 0, len(set))
	for a := range set {
		labels = append(labels, a)
	}
	sort.Strings(labels)
	return labels
}

// reach marks the vertices of the graph adj reachable from roots.
func reach(adj [][]int, roots []int) []bool {
	seen := make([]bool, len(adj))
	stack := append([]int(nil), roots...)
	for _, q := range roots {
		seen[q] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range adj[q] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// IsEmpty reports whether L(n) = ∅ (no final state reachable).
func (n *NFA) IsEmpty() bool {
	seen := make([]bool, n.NumStates)
	stack := append([]int(nil), n.Initial...)
	for _, q := range stack {
		seen[q] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Final[q] {
			return false
		}
		for _, succs := range n.Trans[q] {
			for _, p := range succs {
				if !seen[p] {
					seen[p] = true
					stack = append(stack, p)
				}
			}
		}
	}
	return true
}

// ShortestWitness returns a shortest accepted word, or (nil, false) if the
// language is empty. The empty word is returned as an empty non-nil slice.
func (n *NFA) ShortestWitness() ([]string, bool) {
	type item struct {
		state int
		word  []string
	}
	seen := make([]bool, n.NumStates)
	var queue []item
	for _, q := range n.Initial {
		if n.Final[q] {
			return []string{}, true
		}
		seen[q] = true
		queue = append(queue, item{q, nil})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		// Deterministic order: iterate labels sorted.
		labels := make([]string, 0, len(n.Trans[it.state]))
		for a := range n.Trans[it.state] {
			labels = append(labels, a)
		}
		sort.Strings(labels)
		for _, a := range labels {
			for _, p := range n.Trans[it.state][a] {
				if seen[p] {
					continue
				}
				seen[p] = true
				w := append(append([]string(nil), it.word...), a)
				if n.Final[p] {
					return w, true
				}
				queue = append(queue, item{p, w})
			}
		}
	}
	return nil, false
}

// DFA is a deterministic finite automaton. State 0 is the initial state.
// A missing transition means the word is rejected (partial DFA); Totalize
// adds an explicit sink.
type DFA struct {
	NumStates int
	Final     map[int]bool
	Trans     []map[string]int
	Alphabet  []string
}

// NewDFA returns a DFA with n states and no transitions.
func NewDFA(n int) *DFA {
	t := make([]map[string]int, n)
	for i := range t {
		t[i] = map[string]int{}
	}
	return &DFA{NumStates: n, Final: map[int]bool{}, Trans: t}
}

// SetTransition sets δ(q, a) = p.
func (d *DFA) SetTransition(q int, a string, p int) {
	d.Trans[q][a] = p
	i := sort.SearchStrings(d.Alphabet, a)
	if i < len(d.Alphabet) && d.Alphabet[i] == a {
		return
	}
	d.Alphabet = append(d.Alphabet, "")
	copy(d.Alphabet[i+1:], d.Alphabet[i:])
	d.Alphabet[i] = a
}

// Accepts reports whether d accepts the word.
func (d *DFA) Accepts(word []string) bool {
	q := 0
	for _, a := range word {
		p, ok := d.Trans[q][a]
		if !ok {
			return false
		}
		q = p
	}
	return d.Final[q]
}

// Determinize applies the subset construction, producing a partial DFA whose
// states are the reachable subsets. DeterminizeCtx adds cooperative
// cancellation for callers facing adversarial inputs.
func Determinize(n *NFA) *DFA {
	d, _ := DeterminizeCtx(context.Background(), n)
	return d
}

// Totalize returns an equivalent total DFA over the union of d's alphabet and
// extra, adding a non-final sink state if any transition is missing.
func (d *DFA) Totalize(extra []string) *DFA {
	alpha := append([]string(nil), d.Alphabet...)
	for _, a := range extra {
		i := sort.SearchStrings(alpha, a)
		if i >= len(alpha) || alpha[i] != a {
			alpha = append(alpha, "")
			copy(alpha[i+1:], alpha[i:])
			alpha[i] = a
		}
	}
	needSink := false
	for q := 0; q < d.NumStates; q++ {
		if len(d.Trans[q]) < len(alpha) {
			needSink = true
			break
		}
	}
	out := NewDFA(d.NumStates)
	out.Alphabet = alpha
	for q := range d.Final {
		out.Final[q] = d.Final[q]
	}
	sink := -1
	if needSink {
		sink = d.NumStates
		out.NumStates++
		out.Trans = append(out.Trans, map[string]int{})
	}
	for q := 0; q < d.NumStates; q++ {
		for _, a := range alpha {
			if p, ok := d.Trans[q][a]; ok {
				out.Trans[q][a] = p
			} else {
				out.Trans[q][a] = sink
			}
		}
	}
	if needSink {
		for _, a := range alpha {
			out.Trans[sink][a] = sink
		}
	}
	return out
}

// Complement returns a total DFA for the complement of L(d) w.r.t. the union
// of d's alphabet and extra.
func (d *DFA) Complement(extra []string) *DFA {
	t := d.Totalize(extra)
	for q := 0; q < t.NumStates; q++ {
		if t.Final[q] {
			delete(t.Final, q)
		} else {
			t.Final[q] = true
		}
	}
	return t
}

// Minimize returns the minimal total DFA equivalent to d (Moore's algorithm
// over the totalized automaton, with unreachable-state pruning).
func (d *DFA) Minimize() *DFA {
	t := d.Totalize(nil)
	// prune unreachable
	reach := make([]bool, t.NumStates)
	stack := []int{0}
	reach[0] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range t.Trans[q] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	// Moore partition refinement
	class := make([]int, t.NumStates)
	for q := 0; q < t.NumStates; q++ {
		if t.Final[q] {
			class[q] = 1
		}
	}
	for {
		// signature = (class, class of successor per alphabet label)
		sig := make([]string, t.NumStates)
		for q := 0; q < t.NumStates; q++ {
			if !reach[q] {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%d", class[q])
			for _, a := range t.Alphabet {
				fmt.Fprintf(&b, "|%d", class[t.Trans[q][a]])
			}
			sig[q] = b.String()
		}
		newClass := make([]int, t.NumStates)
		idx := map[string]int{}
		n := 0
		for q := 0; q < t.NumStates; q++ {
			if !reach[q] {
				continue
			}
			c, ok := idx[sig[q]]
			if !ok {
				c = n
				n++
				idx[sig[q]] = c
			}
			newClass[q] = c
		}
		same := true
		for q := 0; q < t.NumStates; q++ {
			if reach[q] && newClass[q] != class[q] {
				same = false
			}
		}
		class = newClass
		if same {
			break
		}
	}
	// renumber with initial state's class first
	nClasses := 0
	for q := 0; q < t.NumStates; q++ {
		if reach[q] && class[q]+1 > nClasses {
			nClasses = class[q] + 1
		}
	}
	remap := make([]int, nClasses)
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	order := make([]int, 0, t.NumStates)
	order = append(order, 0)
	seen := map[int]bool{class[0]: true}
	remap[class[0]] = next
	next++
	// BFS over class graph for stable numbering
	for i := 0; i < len(order); i++ {
		q := order[i]
		for _, a := range t.Alphabet {
			p := t.Trans[q][a]
			if !seen[class[p]] {
				seen[class[p]] = true
				remap[class[p]] = next
				next++
				order = append(order, p)
			}
		}
	}
	out := NewDFA(next)
	out.Alphabet = append([]string(nil), t.Alphabet...)
	for i, q := range order {
		for _, a := range t.Alphabet {
			out.Trans[i][a] = remap[class[t.Trans[q][a]]]
		}
		if t.Final[q] {
			out.Final[i] = true
		}
	}
	return out
}

// Product returns a partial DFA for L(d1) ∩ L(d2) (on intersect=true) or
// L(d1) ∪ L(d2) (intersect=false; both inputs are totalized first).
func Product(d1, d2 *DFA, intersect bool) *DFA {
	if !intersect {
		d1 = d1.Totalize(d2.Alphabet)
		d2 = d2.Totalize(d1.Alphabet)
	}
	type pair struct{ a, b int }
	index := map[pair]int{{0, 0}: 0}
	states := []pair{{0, 0}}
	out := NewDFA(1)
	for i := 0; i < len(states); i++ {
		st := states[i]
		f1, f2 := d1.Final[st.a], d2.Final[st.b]
		if (intersect && f1 && f2) || (!intersect && (f1 || f2)) {
			out.Final[i] = true
		}
		for a, p1 := range d1.Trans[st.a] {
			p2, ok := d2.Trans[st.b][a]
			if !ok {
				continue // missing transition rejects in both modes after totalization
			}
			np := pair{p1, p2}
			j, ok := index[np]
			if !ok {
				j = len(states)
				index[np] = j
				states = append(states, np)
				out.Trans = append(out.Trans, map[string]int{})
				out.NumStates++
			}
			out.SetTransition(i, a, j)
		}
	}
	return out
}

// IsEmpty reports whether L(d) = ∅.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, d.NumStates)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Final[q] {
			return false
		}
		for _, p := range d.Trans[q] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return true
}

// ToNFA converts d to an equivalent NFA.
func (d *DFA) ToNFA() *NFA {
	n := NewNFA(d.NumStates)
	n.Initial = []int{0}
	for q, m := range d.Trans {
		for a, p := range m {
			n.AddTransition(q, a, p)
		}
	}
	for q := range d.Final {
		n.Final[q] = true
	}
	n.WithAlphabet(d.Alphabet)
	return n
}

// Contains reports whether L(e1) ⊆ L(e2), deciding
// L(e1) ∩ complement(L(e2)) = ∅ with the antichain engine of
// antichain.go: a lazy product of the Glushkov NFA of e1 with the
// on-the-fly subset automaton of e2 over interned bitsets, pruned by
// subsumption. This is the general (PSPACE-complete, Section 4.2.2)
// decision procedure — the problem stays exponential in the worst case,
// the engine just reaches it far later; ContainsClassic retains the
// eager textbook construction, and package chare provides the
// polynomial-time algorithms for the fragments of Theorem 4.4.
func Contains(e1, e2 *regex.Expr) bool {
	ok, _ := ContainsCtx(context.Background(), e1, e2)
	return ok
}

// Equivalent reports whether L(e1) = L(e2).
func Equivalent(e1, e2 *regex.Expr) bool {
	return Contains(e1, e2) && Contains(e2, e1)
}

// NFAContains reports whether L(n1) ⊆ L(e2), with the same antichain
// construction as Contains. The NFA form lets callers pre-restrict the
// left language (e.g. DTD containment restricts content models to
// realizable labels before comparing).
func NFAContains(n1 *NFA, e2 *regex.Expr) bool {
	ok, _ := NFAContainsCtx(context.Background(), n1, e2)
	return ok
}

// IntersectionNonEmpty decides RE-Intersection (Section 4.2.2): whether
// L(e1) ∩ … ∩ L(en) ≠ ∅, by an on-the-fly product of the Glushkov automata.
// The state space is exponential in the number of expressions in the worst
// case (the problem is PSPACE-complete); package chare provides the
// polynomial cases of Theorem 4.5.
func IntersectionNonEmpty(es ...*regex.Expr) bool {
	_, ok, _ := IntersectionWitnessCtx(context.Background(), es...)
	return ok
}

func unionAlpha(a, b []string) []string {
	m := map[string]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		m[x] = true
	}
	out := make([]string, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// ToDFA is a convenience: minimal DFA of a regular expression.
func ToDFA(e *regex.Expr) *DFA {
	return Determinize(Glushkov(e)).Minimize()
}
