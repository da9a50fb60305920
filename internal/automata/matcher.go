package automata

import (
	"slices"
	"sort"
)

// Matcher is the compiled form of an NFA for repeated membership tests:
// compact, immutable once built, and safe for concurrent use, so one
// Matcher can be cached and shared by every request that asks about the
// same expression.
//
// Labels are interned into a sorted slice; a label's index is its id.
// The transitions are kept in CSR form, grouped by state and then by
// label, so a Matcher's size is linear in the number of transitions of
// the NFA it was built from, however many labels there are. Accepts
// simulates the NFA on the fly, which is polynomial in the word and the
// automaton, where determinizing could be exponential. On a
// deterministic automaton — always the case for the Glushkov automaton
// of a deterministic expression (Section 4.2.1), which real schemas
// overwhelmingly use — the simulated set never holds more than one
// state, so each symbol costs two binary searches and no allocation.
type Matcher struct {
	labels        []string
	final         []bool
	initial       []int32
	deterministic bool
	// State q's transitions are the entries row[q] to row[q+1]-1, sorted
	// by label id: entry i is on label lab[i] and its successors are
	// succ[off[i]:off[i+1]].
	row, lab, off, succ []int32
}

// NewMatcher compiles n. The NFA is only read; later changes to it do not
// affect the Matcher.
func NewMatcher(n *NFA) *Matcher {
	m := &Matcher{
		labels:        append([]string(nil), n.Alphabet...),
		final:         make([]bool, n.NumStates),
		initial:       make([]int32, len(n.Initial)),
		deterministic: n.IsDeterministic(),
		row:           make([]int32, n.NumStates+1),
	}
	for q := range n.Final {
		m.final[q] = n.Final[q]
	}
	for i, q := range n.Initial {
		m.initial[i] = int32(q)
	}
	entries, total := 0, 0
	for _, trans := range n.Trans {
		entries += len(trans)
		for _, ps := range trans {
			total += len(ps)
		}
	}
	m.lab = make([]int32, 0, entries)
	m.off = make([]int32, 1, entries+1)
	m.succ = make([]int32, 0, total)
	for q, trans := range n.Trans {
		start := len(m.lab)
		for a := range trans {
			m.lab = append(m.lab, int32(m.label(a)))
		}
		slices.Sort(m.lab[start:])
		for _, l := range m.lab[start:] {
			for _, p := range trans[m.labels[l]] {
				m.succ = append(m.succ, int32(p))
			}
			m.off = append(m.off, int32(len(m.succ)))
		}
		m.row[q+1] = int32(len(m.lab))
	}
	return m
}

// Deterministic reports whether the compiled NFA was deterministic
// (NFA.IsDeterministic).
func (m *Matcher) Deterministic() bool { return m.deterministic }

// label returns the id of a, or -1 when a is not in the alphabet.
func (m *Matcher) label(a string) int {
	i := sort.SearchStrings(m.labels, a)
	if i < len(m.labels) && m.labels[i] == a {
		return i
	}
	return -1
}

// successors returns the successors of q on label l, sorted and
// duplicate-free.
func (m *Matcher) successors(q, l int32) []int32 {
	lo, hi := m.row[q], m.row[q+1]
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if m.lab[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || m.lab[lo] != l {
		return nil
	}
	return m.succ[m.off[lo]:m.off[lo+1]]
}

// Accepts reports whether the automaton accepts word. It keeps the set of
// current states per symbol. A step from one state needs no duplicate
// check, since a successor list is duplicate-free; a step from several
// marks each state added, with mark = step+1, so the marks never need
// clearing.
func (m *Matcher) Accepts(word []string) bool {
	var curBuf, nextBuf, markBuf [64]int32
	cur, next := append(curBuf[:0], m.initial...), nextBuf[:0]
	var mark []int32
	for i, a := range word {
		l := m.label(a)
		if l < 0 {
			return false
		}
		next = next[:0]
		if len(cur) == 1 {
			next = append(next, m.successors(cur[0], int32(l))...)
		} else {
			if mark == nil {
				if n := len(m.final); n <= len(markBuf) {
					mark = markBuf[:n]
				} else {
					mark = make([]int32, n)
				}
			}
			stamp := int32(i + 1)
			for _, q := range cur {
				for _, p := range m.successors(q, int32(l)) {
					if mark[p] != stamp {
						mark[p] = stamp
						next = append(next, p)
					}
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur, next = next, cur
	}
	for _, q := range cur {
		if m.final[q] {
			return true
		}
	}
	return false
}
