// Package bitset provides the word-packed state sets of the automata
// engines. A set over an n-state universe is a StateSet of ⌈n/64⌉
// uint64 words, so the containment engine can store whole tables of
// them in flat []uint64 slabs, compare sets with a word-wise subset
// test, and take a successor set as a handful of word ANDs and ORs.
package bitset

import "math/bits"

// StateSet is a fixed-universe bitset: bit i set means state i is a
// member. All binary operations require both operands to come from the
// same universe (equal word length).
type StateSet []uint64

// New returns an empty StateSet for a universe of n states.
func New(n int) StateSet {
	return make(StateSet, (n+63)/64)
}

// Add inserts state i.
func (s StateSet) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether state i is a member.
func (s StateSet) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Clear removes every member, keeping the universe size.
func (s StateSet) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// UnionWith adds every member of o to s.
func (s StateSet) UnionWith(o StateSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// And sets s to a ∩ b and reports whether the result is nonempty.
func (s StateSet) And(a, b StateSet) bool {
	var or uint64
	for i, w := range a {
		w &= b[i]
		s[i] = w
		or |= w
	}
	return or != 0
}

// Intersects reports whether s and o share a member.
func (s StateSet) Intersects(o StateSet) bool {
	for i, w := range o {
		if s[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s is in o.
func (s StateSet) SubsetOf(o StateSet) bool {
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o have exactly the same members.
func (s StateSet) Equal(o StateSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Empty reports whether s has no members.
func (s StateSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Next returns the least member ≥ i, or -1 when there is none, so
//
//	for q := s.Next(0); q >= 0; q = s.Next(q + 1)
//
// visits the members in increasing order.
func (s StateSet) Next(i int) int {
	k := i >> 6
	if k >= len(s) {
		return -1
	}
	w := s[k] &^ (1<<(uint(i)&63) - 1)
	for w == 0 {
		if k++; k == len(s) {
			return -1
		}
		w = s[k]
	}
	return k<<6 + bits.TrailingZeros64(w)
}
