// Package automata implements finite automata over label alphabets: the
// Glushkov construction from regular expressions (one First/Last/Follow
// pass over the syntax tree, in compile.go, read as the Matcher or as
// the containment engine's position tables), subset construction over
// the Matcher, DFA minimization, Boolean operations, and the
// decision procedures (membership, emptiness, containment, equivalence,
// intersection non-emptiness) that underpin the complexity landscape of
// Sections 4.2 and 9.6 of "Towards Theory for Real-World Data".
package automata

import (
	"context"
	"encoding/binary"
	"slices"

	"repro/internal/regex"
)

// NFA is the Glushkov automaton of an expression, behind the two calls
// internal/perfbench (a separate module) makes: Accepts and
// IsDeterministic. It exists only for perfbench; ROADMAP item 12 moves
// those calls to NewMatcher and deletes it.
type NFA struct{ m *Matcher }

// Glushkov returns the Glushkov automaton of e (see NewMatcher).
func Glushkov(e *regex.Expr) *NFA { return &NFA{NewMatcher(e)} }

// Accepts reports whether the automaton accepts word.
func (n *NFA) Accepts(word []string) bool {
	ok, _ := n.m.Accepts(context.Background(), word)
	return ok
}

// IsDeterministic reports whether the expression is deterministic
// (Section 4.2.1).
func (n *NFA) IsDeterministic() bool { return n.m.Deterministic() }

// DFA is a deterministic finite automaton over the sorted Alphabet, one
// table indexed by label id. State 0 is the initial state, and
// Next[q·|Σ|+l] is the successor of q on Alphabet[l], or -1 when there
// is none: a missing transition rejects the word (partial DFA), and
// Totalize adds an explicit sink.
type DFA struct {
	Alphabet []string
	Next     []int
	Final    []bool
}

// NumStates returns the number of states of d.
func (d *DFA) NumStates() int { return len(d.Final) }

// Step returns the successor of q on label id l, or -1.
func (d *DFA) Step(q, l int) int { return d.Next[q*len(d.Alphabet)+l] }

// row returns the successors of q, by label id.
func (d *DFA) row(q int) []int {
	k := len(d.Alphabet)
	return d.Next[q*k : (q+1)*k]
}

// Accepts reports whether d accepts the word.
func (d *DFA) Accepts(word []string) bool {
	q := 0
	for _, a := range word {
		l, ok := slices.BinarySearch(d.Alphabet, a)
		if !ok {
			return false
		}
		if q = d.Step(q, l); q < 0 {
			return false
		}
	}
	return d.Final[q]
}

// Totalize returns an equivalent total DFA, adding a non-final sink
// state if any transition is missing.
func (d *DFA) Totalize() *DFA {
	n := d.NumStates()
	out := &DFA{Alphabet: slices.Clone(d.Alphabet), Next: slices.Clone(d.Next), Final: slices.Clone(d.Final)}
	if !slices.Contains(out.Next, -1) {
		return out
	}
	for i, p := range out.Next {
		if p < 0 {
			out.Next[i] = n
		}
	}
	out.Final = append(out.Final, false)
	for range out.Alphabet {
		out.Next = append(out.Next, n)
	}
	return out
}

// Minimize returns the minimal total DFA equivalent to d (Moore's algorithm
// over the totalized automaton, with unreachable-state pruning). States
// are numbered breadth first from the initial one in label order, so
// equivalent automata over one alphabet minimize to the same table.
func (d *DFA) Minimize() *DFA {
	t := d.Totalize()
	n := t.NumStates()
	reach := make([]bool, n)
	reach[0] = true
	for stack := []int{0}; len(stack) > 0; {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range t.row(q) {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	// Moore partition refinement: a state's signature is its class and
	// the classes of its successors in label order, as uvarints. Each
	// round refines the last, so it is stable once the count stops growing.
	class := make([]int, n)
	for q, f := range t.Final {
		if f {
			class[q] = 1
		}
	}
	var key []byte
	classes := 0
	for {
		next := make([]int, n)
		ids := map[string]int{}
		for q := 0; q < n; q++ {
			if !reach[q] {
				continue
			}
			key = binary.AppendUvarint(key[:0], uint64(class[q]))
			for _, p := range t.row(q) {
				key = binary.AppendUvarint(key, uint64(class[p]))
			}
			c, ok := ids[string(key)]
			if !ok {
				c = len(ids)
				ids[string(key)] = c
			}
			next[q] = c
		}
		class = next
		if len(ids) == classes {
			break
		}
		classes = len(ids)
	}
	// Number the classes breadth first from the initial state's.
	remap := make([]int, classes)
	for i := range remap {
		remap[i] = -1
	}
	remap[class[0]] = 0
	order := []int{0} // a state of each class, by new number
	for i := 0; i < len(order); i++ {
		for _, p := range t.row(order[i]) {
			if remap[class[p]] < 0 {
				remap[class[p]] = len(order)
				order = append(order, p)
			}
		}
	}
	out := &DFA{Alphabet: t.Alphabet, Next: make([]int, 0, len(order)*len(t.Alphabet)), Final: make([]bool, len(order))}
	for i, q := range order {
		for _, p := range t.row(q) {
			out.Next = append(out.Next, remap[class[p]])
		}
		out.Final[i] = t.Final[q]
	}
	return out
}

// Intersect returns a partial DFA for L(d1) ∩ L(d2) over the labels both
// alphabets share: the pairs of states reachable from (0, 0), numbered
// breadth first in label order.
func Intersect(d1, d2 *DFA) *DFA {
	alpha := intersectSorted(d1.Alphabet, d2.Alphabet)
	ids1, ids2 := make([]int, len(alpha)), make([]int, len(alpha))
	for l, a := range alpha {
		ids1[l], _ = slices.BinarySearch(d1.Alphabet, a)
		ids2[l], _ = slices.BinarySearch(d2.Alphabet, a)
	}
	type pair struct{ a, b int }
	index := map[pair]int{{0, 0}: 0}
	states := []pair{{0, 0}}
	out := &DFA{Alphabet: alpha}
	for i := 0; i < len(states); i++ {
		st := states[i]
		out.Final = append(out.Final, d1.Final[st.a] && d2.Final[st.b])
		for l := range alpha {
			np := pair{d1.Step(st.a, ids1[l]), d2.Step(st.b, ids2[l])}
			if np.a < 0 || np.b < 0 {
				out.Next = append(out.Next, -1)
				continue
			}
			j, ok := index[np]
			if !ok {
				j = len(states)
				index[np] = j
				states = append(states, np)
			}
			out.Next = append(out.Next, j)
		}
	}
	return out
}

// Contains reports whether L(e1) ⊆ L(e2), deciding
// L(e1) ∩ complement(L(e2)) = ∅ with the antichain engine of
// antichain.go: a lazy product of the Glushkov automaton of e1 with the
// on-the-fly subset automaton of e2 over interned bitsets, pruned by
// subsumption. This is the general (PSPACE-complete, Section 4.2.2)
// decision procedure — the problem stays exponential in the worst case,
// the engine just reaches it far later; package chare provides the
// polynomial-time algorithms for the fragments of Theorem 4.4.
func Contains(e1, e2 *regex.Expr) bool {
	ok, _ := ContainsCtx(context.Background(), e1, e2)
	return ok
}

// Equivalent reports whether L(e1) = L(e2).
func Equivalent(e1, e2 *regex.Expr) bool {
	return Contains(e1, e2) && Contains(e2, e1)
}

// IntersectionNonEmpty decides RE-Intersection (Section 4.2.2): whether
// L(e1) ∩ … ∩ L(en) ≠ ∅, by an on-the-fly product of their Matchers.
// The state space is exponential in the number of expressions in the worst
// case (the problem is PSPACE-complete); package chare provides the
// polynomial cases of Theorem 4.5.
func IntersectionNonEmpty(es ...*regex.Expr) bool {
	_, ok, _ := IntersectionWitnessCtx(context.Background(), es...)
	return ok
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

// ToDFA returns the minimal DFA of e: the subset construction over its
// Matcher (determinizeCtx), minimized. Minimize numbers states
// canonically, so the result depends only on L(e) and the alphabet of
// e, which counts symbols under ∅ too.
func ToDFA(e *regex.Expr) *DFA {
	d, _ := determinizeCtx(context.Background(), NewMatcher(e))
	return d.Minimize()
}
