package chare

import (
	"context"

	"repro/internal/automata"
	"repro/internal/regex"
)

// Method identifies which decision procedure answered a query; benchmarks
// use it to separate the fragment-specific polynomial algorithms of
// Theorems 4.4/4.5 from the general automata fallback.
type Method int

// Decision methods.
const (
	MethodBlocks   Method = iota // RE(a,a+) block normal form (Thm 4.4(a)/4.5(a))
	MethodFixedLen               // RE(a,(+a)) positionwise sets (Thm 4.4(b)/4.5(b))
	MethodGreedy                 // subsequence-closed greedy (Abdulla et al.)
	MethodAutomata               // general automata construction (PSPACE regime)
)

func (m Method) String() string {
	switch m {
	case MethodBlocks:
		return "blocks"
	case MethodFixedLen:
		return "fixed-length"
	case MethodGreedy:
		return "greedy"
	case MethodAutomata:
		return "automata"
	}
	return "?"
}

// Contains decides L(c1) ⊆ L(c2), dispatching to the fastest applicable
// procedure, and reports which one was used.
func Contains(c1, c2 *CHARE) (bool, Method) {
	if c1.InFragment(TypeA, TypeAPlus) && c2.InFragment(TypeA, TypeAPlus) {
		return containsBlocks(c1, c2), MethodBlocks
	}
	if c1.InFragment(TypeA, TypeDisj) && c2.InFragment(TypeA, TypeDisj) {
		return containsFixedLen(c1, c2), MethodFixedLen
	}
	if greedyApplicableLeft(c1) && greedyApplicableRight(c2) {
		return containsGreedy(c1, c2), MethodGreedy
	}
	return automata.Contains(c1.Expr(), c2.Expr()), MethodAutomata
}

// IntersectionNonEmpty decides whether L(c1) ∩ … ∩ L(cn) ≠ ∅, dispatching
// to the fastest applicable procedure.
func IntersectionNonEmpty(cs ...*CHARE) (bool, Method) {
	if len(cs) == 0 {
		return true, MethodFixedLen
	}
	allBlocks, allFixed := true, true
	for _, c := range cs {
		if !c.InFragment(TypeA, TypeAPlus) {
			allBlocks = false
		}
		if !c.InFragment(TypeA, TypeDisj) {
			allFixed = false
		}
	}
	if allBlocks {
		return intersectBlocks(cs), MethodBlocks
	}
	if allFixed {
		return intersectFixedLen(cs), MethodFixedLen
	}
	es := make([]*regex.Expr, len(cs))
	for i, c := range cs {
		es[i] = c.Expr()
	}
	return automata.IntersectionNonEmpty(es...), MethodAutomata
}

// ---------------------------------------------------------------------------
// RE(a,a+): block normal form. Theorem 4.4(a) and 4.5(a).
//
// Merging adjacent factors over the same label, an RE(a,a+) expression is a
// sequence of blocks (label, minCount, unbounded) with distinct adjacent
// labels; its language is the set of words a1^n1 … am^nm with ni = minCount
// (bounded block) or ni ≥ minCount (unbounded block). Words decompose
// uniquely into blocks, so containment and intersection reduce to per-block
// count-set comparisons — the normal form is the "easy to see" PTIME
// argument referenced under Theorem 4.4(a).
// ---------------------------------------------------------------------------

type block struct {
	label     string
	min       int
	unbounded bool
}

func blocks(c *CHARE) []block {
	var out []block
	for _, f := range c.Factors {
		a := f.Symbols[0]
		unb := f.Mod == Plus
		if len(out) > 0 && out[len(out)-1].label == a {
			out[len(out)-1].min++
			out[len(out)-1].unbounded = out[len(out)-1].unbounded || unb
		} else {
			out = append(out, block{a, 1, unb})
		}
	}
	return out
}

func containsBlocks(c1, c2 *CHARE) bool {
	b1, b2 := blocks(c1), blocks(c2)
	if len(b1) != len(b2) {
		return false
	}
	for i := range b1 {
		x, y := b1[i], b2[i]
		if x.label != y.label {
			return false
		}
		switch {
		case !x.unbounded && !y.unbounded:
			if x.min != y.min {
				return false
			}
		case !x.unbounded && y.unbounded:
			if x.min < y.min {
				return false
			}
		case x.unbounded && !y.unbounded:
			return false
		default:
			if x.min < y.min {
				return false
			}
		}
	}
	return true
}

func intersectBlocks(cs []*CHARE) bool {
	base := blocks(cs[0])
	for _, c := range cs[1:] {
		b := blocks(c)
		if len(b) != len(base) {
			return false
		}
		for i := range b {
			if b[i].label != base[i].label {
				return false
			}
			x, y := base[i], b[i]
			// Intersect count sets {x} with {y}: exact∩exact needs equality;
			// exact∩[y,∞) needs exact ≥ y; [x,∞)∩[y,∞) = [max,∞).
			switch {
			case !x.unbounded && !y.unbounded:
				if x.min != y.min {
					return false
				}
			case !x.unbounded && y.unbounded:
				if x.min < y.min {
					return false
				}
			case x.unbounded && !y.unbounded:
				if y.min < x.min {
					return false
				}
				base[i] = y
			default:
				if y.min > x.min {
					base[i].min = y.min
				}
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// RE(a,(+a)): every word has length = number of factors, and position i is
// drawn from factor i's symbol set. Theorem 4.4(b) and 4.5(b).
// ---------------------------------------------------------------------------

func containsFixedLen(c1, c2 *CHARE) bool {
	if len(c1.Factors) != len(c2.Factors) {
		return false
	}
	for i, f := range c1.Factors {
		if !c2.Factors[i].ContainsAll(f.Symbols) {
			return false
		}
	}
	return true
}

func intersectFixedLen(cs []*CHARE) bool {
	n := len(cs[0].Factors)
	for _, c := range cs[1:] {
		if len(c.Factors) != n {
			return false
		}
	}
	for i := 0; i < n; i++ {
		common := map[string]bool{}
		for _, a := range cs[0].Factors[i].Symbols {
			common[a] = true
		}
		for _, c := range cs[1:] {
			next := map[string]bool{}
			for _, a := range c.Factors[i].Symbols {
				if common[a] {
					next[a] = true
				}
			}
			common = next
		}
		if len(common) == 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Greedy containment for subsequence-closed right-hand sides
// (Abdulla et al., referenced after Theorem 4.4: containment of
// RE(a?,(+a)*) is in PTIME because the languages are closed under taking
// subsequences, so a greedy strategy works).
//
// Applicability: every factor of c2 is nullable (types a?, a*, (+a)?, (+a)*),
// and every factor of c1 is either a singleton (a, a?, a*, a+) or an
// unbounded disjunction ((+a)*, (+a)+). Bounded disjunction factors on the
// left, (+a) and (+a)?, are excluded: their words can split over multiple
// right-hand factors and the per-factor greedy argument breaks.
// ---------------------------------------------------------------------------

func greedyApplicableLeft(c *CHARE) bool {
	for _, f := range c.Factors {
		if !f.Singleton() && !f.Mod.Unbounded() {
			return false
		}
	}
	return true
}

func greedyApplicableRight(c *CHARE) bool {
	for _, f := range c.Factors {
		if !f.Mod.Nullable() {
			return false
		}
	}
	return true
}

func containsGreedy(c1, c2 *CHARE) bool {
	j := 0
	for _, f := range c1.Factors {
		if f.Mod.Unbounded() {
			// Arbitrarily many symbols from f.Symbols: need one starred
			// right-hand factor covering the whole set.
			for j < len(c2.Factors) && !(c2.Factors[j].Mod == Star && c2.Factors[j].ContainsAll(f.Symbols)) {
				j++
			}
			if j == len(c2.Factors) {
				return false
			}
			// Stay on the starred factor: it may absorb later material too.
		} else {
			// One occurrence of the singleton symbol.
			a := f.Symbols[0]
			for j < len(c2.Factors) && !c2.Factors[j].Contains(a) {
				j++
			}
			if j == len(c2.Factors) {
				return false
			}
			if c2.Factors[j].Mod != Star {
				j++ // an optional factor is consumed by this occurrence
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Compact witnesses. The NP upper bounds of Theorem 4.5(c–g) rest on the
// fact that a word in the intersection can be guessed as a polynomial-size
// run-length encoding and verified against each CHARE in polynomial time.
// RLEWord and MemberRLE implement that verifier.
// ---------------------------------------------------------------------------

// RLERun is a maximal run of a single label.
type RLERun struct {
	Label string
	Count int
}

// RLEWord is a run-length-encoded word; counts may be astronomically large.
type RLEWord []RLERun

// MemberRLE decides in time polynomial in |c| + |w| (the *encoding* size)
// whether the expanded word is in L(c). It relies on the pumping property
// of CHAREs: runs longer than the number of factors can only be absorbed by
// unbounded factors, so counts can be capped at |factors|+1 without changing
// membership.
func MemberRLE(c *CHARE, w RLEWord) bool {
	// A run longer than the factor count forces at least one unbounded
	// factor to absorb part of it (bounded factors consume ≤ 1 symbol each),
	// and an unbounded factor that consumes one symbol of a run can consume
	// any larger amount; conversely an accepting run can always be shrunk to
	// the cap by reducing unbounded-factor iterations. Membership is
	// therefore invariant under capping counts at |factors|+1.
	maxRun := len(c.Factors) + 1
	// Normalize: merge adjacent runs over the same label (saturating, so
	// huge counts cannot overflow) before capping.
	var norm RLEWord
	for _, r := range w {
		if r.Count <= 0 {
			continue
		}
		if len(norm) > 0 && norm[len(norm)-1].Label == r.Label {
			if norm[len(norm)-1].Count < maxRun {
				norm[len(norm)-1].Count += r.Count
			}
		} else {
			norm = append(norm, r)
		}
	}
	var word []string
	for _, r := range norm {
		n := r.Count
		if n > maxRun {
			n = maxRun
		}
		for i := 0; i < n; i++ {
			word = append(word, r.Label)
		}
	}
	ok, _ := automata.NewMatcher(c.Expr()).Accepts(context.Background(), word)
	return ok
}
