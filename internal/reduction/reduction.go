// Package reduction implements the coNP-hardness reductions of Appendix A
// of "Towards Theory for Real-World Data": from validity of propositional
// DNF formulas to containment of expressions in RE(a,a?) and RE(a,a*).
//
// A DNF formula φ with n variables and m clauses is valid iff every truth
// assignment satisfies some clause. Following the appendix, the expression
// e1 consists of 2m−1 '#'-separated blocks: m−1 concrete buffer blocks, one
// middle block that generates all truth assignments, and m−1 more buffer
// blocks. The expression e2 consists of m−1 fully optional blocks, m clause
// blocks (one per clause, with a concrete '#'), and m−1 more optional
// blocks. Because every clause '#' must consume a distinct '#' of the word
// and clause blocks are adjacent in e2, the m clause blocks always cover a
// window of m consecutive blocks of the word — and the middle (generator)
// block of e1's word falls in every such window. Hence every generated
// assignment must match some clause block, i.e. satisfy some clause.
//
// Slot encodings are chosen so that buffer slots match every clause slot
// (buffers may align with any clause block):
//
//	RE(a,a?): true = aa, false = ε, buffer = a;
//	          positive slot "a a?" = {a,aa}, negative "a?" = {ε,a},
//	          unconstrained "a?a?" = {ε,a,aa}.
//	RE(a,a*): true = ab, false = ba, buffer = a;
//	          positive slot "a a* b* a*" = a⁺b*a*, negative "b* a*",
//	          unconstrained "a* b* a*".
//
// The generator slots (a?a? resp. a*b*a*) also produce half-true junk such
// as "a"; every junk value lies in positive ∪ negative (and in the
// unconstrained slot), so junk never falsifies a valid formula.
package reduction

import (
	"fmt"
	"strings"

	"repro/internal/regex"
)

// Literal is a possibly negated variable, 1-based; negative values denote
// negation. For example, -3 is ¬x3.
type Literal int

// Clause is a conjunction of literals.
type Clause []Literal

// DNF is a disjunction of clauses over variables 1..Vars.
type DNF struct {
	Vars    int
	Clauses []Clause
}

// Valid decides validity of φ by enumerating all 2^Vars assignments
// (used as the brute-force cross-check for the reductions; instances are
// small by construction).
func (f *DNF) Valid() bool {
	if f.Vars > 20 {
		panic("reduction: brute-force validity limited to 20 variables")
	}
	for mask := 0; mask < 1<<uint(f.Vars); mask++ {
		if !f.satisfiedBy(mask) {
			return false
		}
	}
	return true
}

func (f *DNF) satisfiedBy(mask int) bool {
	for _, cl := range f.Clauses {
		ok := true
		for _, lit := range cl {
			v := int(lit)
			if v > 0 {
				if mask&(1<<uint(v-1)) == 0 {
					ok = false
					break
				}
			} else {
				if mask&(1<<uint(-v-1)) != 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func (f *DNF) String() string {
	s := ""
	for i, cl := range f.Clauses {
		if i > 0 {
			s += " ∨ "
		}
		s += "("
		for j, lit := range cl {
			if j > 0 {
				s += " ∧ "
			}
			if lit < 0 {
				s += fmt.Sprintf("¬x%d", -lit)
			} else {
				s += fmt.Sprintf("x%d", lit)
			}
		}
		s += ")"
	}
	return s
}

// consistentClauses drops clauses containing complementary literals.
// Such clauses are unsatisfiable and contribute nothing to the
// disjunction, but the slot encodings below cannot express them: polarity
// keeps one entry per variable, so x∧¬x would silently encode as the
// satisfiable ¬x (surfaced by the round-trip table in
// TestReductionRoundTripTable).
func (f *DNF) consistentClauses() []Clause {
	out := make([]Clause, 0, len(f.Clauses))
	for _, cl := range f.Clauses {
		pos, neg := map[int]bool{}, map[int]bool{}
		for _, lit := range cl {
			if lit > 0 {
				pos[int(lit)] = true
			} else {
				neg[-int(lit)] = true
			}
		}
		ok := true
		for v := range pos {
			if neg[v] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cl)
		}
	}
	return out
}

// neverContained is the degenerate instance for formulas whose clauses
// are all unsatisfiable: such formulas are never valid, so return a pair
// with L(e1) ⊄ L(e2) using only plain symbols (inside every fragment).
func neverContained() (*regex.Expr, *regex.Expr) {
	return regex.NewSymbol("#"), regex.NewSymbol("$")
}

func (f *DNF) polarity(cl Clause) map[int]int {
	pol := map[int]int{}
	for _, lit := range cl {
		if lit > 0 {
			pol[int(lit)] = 1
		} else {
			pol[-int(lit)] = -1
		}
	}
	return pol
}

// encoding is one reduction's slot encoding, written as space-separated
// atoms "x", "x?" or "x*" over single-letter symbols. Both reductions
// share the block skeleton of the package comment and differ only here.
type encoding struct {
	// op wraps the '#' and '$' separators of e2's padding blocks, so that
	// a padding block also matches ε.
	op string
	// free is the unconstrained slot, also e1's generator slot.
	free string
	// pos and neg are the clause slots of a positive and a negative
	// literal.
	pos, neg string
}

// The slot encodings of the package comment. In RE(a,a*) the positive
// slot a⁺b*a* accepts ab and the buffer a, and rejects ba and every
// b-initial junk word; the negative slot b*a* accepts ba, the buffer a and
// all b-initial junk, and rejects ab.
var (
	optEncoding  = encoding{op: "?", free: "a? a?", pos: "a a?", neg: "a?"}
	starEncoding = encoding{op: "*", free: "a* b* a*", pos: "a a* b* a*", neg: "b* a*"}
)

// atoms builds the expressions of a space-separated atom list.
func atoms(s string) []*regex.Expr {
	var out []*regex.Expr
	for _, tok := range strings.Fields(s) {
		a := regex.NewSymbol(tok[:1])
		switch tok[1:] {
		case "?":
			a = regex.NewOpt(a)
		case "*":
			a = regex.NewStar(a)
		}
		out = append(out, a)
	}
	return out
}

// ToOptContainment builds the RE(a,a?) instance: expressions e1, e2 such
// that φ is valid iff L(e1) ⊆ L(e2).
func (f *DNF) ToOptContainment() (e1, e2 *regex.Expr) {
	return f.toContainment(optEncoding)
}

// ToStarContainment builds the RE(a,a*) instance of Appendix A, in which
// the word "ab" encodes true and "ba" encodes false.
func (f *DNF) ToStarContainment() (e1, e2 *regex.Expr) {
	return f.toContainment(starEncoding)
}

// toContainment builds e1 and e2 of the package comment under enc.
func (f *DNF) toContainment(enc encoding) (e1, e2 *regex.Expr) {
	clauses := f.consistentClauses()
	if len(clauses) == 0 {
		return neverContained()
	}
	// block appends "#sep slot(1) $sep slot(2) … $sep slot(n)".
	block := func(parts []*regex.Expr, sep string, slot func(v int) string) []*regex.Expr {
		parts = append(parts, atoms("#"+sep)...)
		for v := 1; v <= f.Vars; v++ {
			if v > 1 {
				parts = append(parts, atoms("$"+sep)...)
			}
			parts = append(parts, atoms(slot(v))...)
		}
		return parts
	}
	// The buffer slot a matches every clause slot; the padding blocks of
	// e2 match any single block of e1's words, or ε.
	buffer := func(int) string { return "a" }
	free := func(int) string { return enc.free }
	pad := func(parts []*regex.Expr, sep string, slot func(int) string) []*regex.Expr {
		for i := 0; i < len(clauses)-1; i++ {
			parts = block(parts, sep, slot)
		}
		return parts
	}

	p1 := pad(nil, "", buffer)
	p1 = block(p1, "", free)
	e1 = regex.NewConcat(pad(p1, "", buffer)...)

	p2 := pad(nil, enc.op, free)
	for _, cl := range clauses {
		pol := f.polarity(cl)
		p2 = block(p2, "", func(v int) string {
			switch pol[v] {
			case 1:
				return enc.pos
			case -1:
				return enc.neg
			}
			return enc.free
		})
	}
	e2 = regex.NewConcat(pad(p2, enc.op, free)...)
	return e1, e2
}
