package automata

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"repro/internal/automata/bitset"
	"repro/internal/regex"
)

// Matcher is the Glushkov automaton of an expression, compiled for
// stepping state sets (membership, validation, intersection, property
// paths) and safe for concurrent use. It keeps the
// Glushkov visit's products unexpanded (visitProducts), linear in the
// expression where (a + … + a)* has n² transitions. A step from a state
// set S on label a is the union of the label-a runs of the products S
// hits. On a deterministic expression (Section 4.2.1), as real schemas
// overwhelmingly are, S never holds more than one state, and a symbol
// costs a binary search per product of that state and no allocation.
type Matcher struct {
	labels        []string // sorted; a label's index is its id
	final         bitset.StateSet
	deterministic bool
	// lab[p] is the label id of position p ≥ 1. Product k's targets are
	// to[toOff[k]:toOff[k+1]], by label id and then position. Position q
	// is in the sources of products in[inOff[q]:inOff[q+1]], ascending.
	lab, to, toOff, in, inOff []int32
}

// NewMatcher compiles the Glushkov automaton of e, its position
// automaton: state 0 is initial, states 1..n are the symbol occurrences
// of e in preorder, and the automaton is homogeneous, every transition
// into q carrying q's label (Section 4.2.1; e is deterministic in the
// sense of Brüggemann-Klein & Wood iff this automaton is).
func NewMatcher(e *regex.Expr) *Matcher {
	b, ps, info := visitProducts(e)
	n := len(b.syms)
	m := &Matcher{labels: alphabetOf(b.syms), final: bitset.New(n + 1)}
	if info.nullable {
		m.final.Add(0)
	}
	for _, p := range b.set(info.last) {
		m.final.Add(int(p))
	}
	numProds, numTo, numIn := len(ps)/2, 0, 0
	for k := 0; k < len(ps); k += 2 {
		numIn, numTo = numIn+int(ps[k].hi-ps[k].lo), numTo+int(ps[k+1].hi-ps[k+1].lo)
	}
	slab := make([]int32, 2*n+4+numTo+numProds+1+numIn)
	carve := func(size int) []int32 {
		s := slab[:size:size]
		slab = slab[size:]
		return s
	}
	m.lab, m.to, m.toOff, m.in, m.inOff = carve(n+1), carve(numTo), carve(numProds+1), carve(numIn), carve(n+3)
	for i, a := range b.syms {
		m.lab[i+1] = m.label(a)
	}
	for k := 0; k < numProds; k++ {
		end := m.toOff[k] + int32(copy(m.to[m.toOff[k]:], b.set(ps[2*k+1])))
		slices.SortFunc(m.to[m.toOff[k]:end], m.byLabel)
		m.toOff[k+1] = end
	}
	// The inverse index by counting sort: q's count goes to inOff[q+2],
	// then the prefix sums make inOff[q+1] q's cursor (inOff[n+2] spare).
	for k := 0; k < len(ps); k += 2 {
		for _, q := range b.set(ps[k]) {
			m.inOff[q+2]++
		}
	}
	for q := 1; q < len(m.inOff); q++ {
		m.inOff[q] += m.inOff[q-1]
	}
	for k := 0; k < len(ps); k += 2 {
		for _, q := range b.set(ps[k]) {
			m.in[m.inOff[q+1]] = int32(k / 2)
			m.inOff[q+1]++
		}
	}
	m.deterministic = true
	m.Conflicts(func(int32, []int32) bool { m.deterministic = false; return false })
	return m
}

// byLabel orders positions by label id, then by position.
func (m *Matcher) byLabel(p, q int32) int {
	return cmp.Or(cmp.Compare(m.lab[p], m.lab[q]), cmp.Compare(p, q))
}

// Conflicts calls f with each state q, in increasing order, and each run
// of two or more successors of q that share a label, sorted, until f
// returns false: the violations of determinism (Section 4.2.1), states
// under ∅ included. A state with its predecessor's products reuses their
// merged targets, so a pass is linear in the product lists and the runs.
func (m *Matcher) Conflicts(f func(q int32, run []int32) bool) {
	var succ, prev []int32
	var buf [4][2]int
	runs := buf[:0] // conflicting runs of succ
	for q := range m.lab {
		if ks := m.in[m.inOff[q]:m.inOff[q+1]]; !slices.Equal(ks, prev) {
			prev, succ, runs = ks, succ[:0], runs[:0]
			for _, k := range ks {
				succ = append(succ, m.to[m.toOff[k]:m.toOff[k+1]]...)
			}
			slices.SortFunc(succ, m.byLabel)
			succ = slices.Compact(succ)
			for i, j := 0, 1; j <= len(succ); j++ {
				if j == len(succ) || m.lab[succ[j]] != m.lab[succ[i]] {
					if j-i > 1 {
						runs = append(runs, [2]int{i, j})
					}
					i = j
				}
			}
		}
		for _, r := range runs {
			if !f(int32(q), succ[r[0]:r[1]]) {
				return
			}
		}
	}
}

// Deterministic reports whether the expression is (Section 4.2.1).
func (m *Matcher) Deterministic() bool { return m.deterministic }

// Alphabet returns the sorted labels of the expression's symbols, those
// under ∅ included. The caller must not modify it.
func (m *Matcher) Alphabet() []string { return m.labels }

// label returns the id of a, or -1 when a is not in the alphabet.
func (m *Matcher) label(a string) int32 {
	if i, ok := slices.BinarySearch(m.labels, a); ok {
		return int32(i)
	}
	return -1
}

// step appends to next the states reached from cur on label l (none for
// l = -1), and to ks the products cur hits; it returns both.
func (m *Matcher) step(next, ks, cur []int32, l int32) ([]int32, []int32) {
	for _, q := range cur {
		for _, k := range m.in[m.inOff[q]:m.inOff[q+1]] {
			if len(ks) == 0 || ks[len(ks)-1] != k { // neighbours often share
				ks = append(ks, k)
			}
		}
	}
	if len(cur) > 1 {
		slices.Sort(ks)
		ks = slices.Compact(ks)
	}
	for _, k := range ks {
		run := m.to[m.toOff[k]:m.toOff[k+1]]
		i := sort.Search(len(run), func(i int) bool { return m.lab[run[i]] >= l })
		for ; i < len(run) && m.lab[run[i]] == l; i++ {
			next = append(next, run[i])
		}
	}
	switch {
	case len(ks) < 2:
	case m.deterministic: // every target found is one position
		next = next[:min(len(next), 1)]
	default:
		slices.Sort(next)
		next = slices.Compact(next)
	}
	return next, ks
}

// Accepts reports whether the automaton accepts word. It returns
// ctx.Err() if that is set at the first symbol or at a later checkpoint.
func (m *Matcher) Accepts(ctx context.Context, word []string) (bool, error) {
	c := canceler{ctx: ctx, tick: checkEvery - 1}
	var curBuf, nextBuf, ksBuf [64]int32
	cur, next, ks := append(curBuf[:0], 0), nextBuf[:0], ksBuf[:0]
	for _, a := range word {
		if err := c.checkpoint(); err != nil {
			return false, err
		}
		if next, ks = m.step(next[:0], ks[:0], cur, m.label(a)); len(next) == 0 {
			return false, nil
		}
		cur, next = next, cur
	}
	return m.AnyFinal(cur), nil
}

// Start returns the state set before the first symbol (see Step).
func (m *Matcher) Start() []int32 { return []int32{0} }

// Step returns the states reached from set on a, in a new slice.
func (m *Matcher) Step(set []int32, a string) []int32 {
	next, _ := m.step(nil, nil, set, m.label(a))
	return next
}

// StepAny returns the states reached from set on any of labels, in a new
// slice: the step of a word position that may carry any of them. The
// products the set hits are collected once.
func (m *Matcher) StepAny(set []int32, labels []string) []int32 {
	var next []int32
	_, ks := m.step(nil, nil, set, -1) // only the products
	for _, a := range labels {
		if l := m.label(a); l >= 0 {
			for _, k := range ks {
				run := m.to[m.toOff[k]:m.toOff[k+1]]
				i := sort.Search(len(run), func(i int) bool { return m.lab[run[i]] >= l })
				for ; i < len(run) && m.lab[run[i]] == l; i++ {
					next = append(next, run[i])
				}
			}
		}
	}
	slices.Sort(next)
	return slices.Compact(next)
}

// AnyFinal reports whether set holds a final state.
func (m *Matcher) AnyFinal(set []int32) bool {
	return slices.ContainsFunc(set, func(q int32) bool { return m.final.Has(int(q)) })
}
