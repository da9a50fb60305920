package propertypath

import (
	"fmt"
	"strings"

	"repro/internal/regex"
	"repro/internal/sparql"
)

// This file implements the *type* scheme of Section 9.6 / Table 8: the
// type of a property path replaces each distinct variable or IRI by a
// letter in order of first occurrence (repeats get the same letter), and
// the table further aggregates: a type and its reverse are one row, ^a
// counts as a plain atom, and any subexpression matching a disjunction of
// at least two symbols — empirically !a, (a|!a), or (a1|…|ak) with k > 1 —
// is written as a capital A.

// TypeString canonicalizes the path to its type, e.g.
// wdt:P31/wdt:P279* has type "ab*" and wdt:P31/wdt:P31* has type "aa*".
// Inverse atoms render as the bare letter. Disjunctions of atoms render
// as 'A', negated property sets as 'A'.
func TypeString(e *regex.Expr) string {
	names := map[string]string{}
	var b strings.Builder
	writeType(e, names, &b, 0)
	return b.String()
}

func letterFor(iri string, names map[string]string) string {
	if l, ok := names[iri]; ok {
		return l
	}
	n := len(names)
	var l string
	if n < 26 {
		l = string(rune('a' + n))
	} else {
		l = fmt.Sprintf("a%d", n)
	}
	names[iri] = l
	return l
}

func writeType(e *regex.Expr, names map[string]string, b *strings.Builder, prec int) {
	switch e.Kind {
	case regex.Symbol:
		sym := sparql.ReadPathSymbol(e.Sym)
		if sym.Negated {
			b.WriteString("A")
			return
		}
		// ^a is "treated the same as a single label" (Section 9.6)
		iri, _, _ := sym.Next()
		b.WriteString(letterFor(iri, names))
	case regex.Union:
		// a disjunction of atoms is the class A; other disjunctions render
		// structurally
		if isAtomDisjunction(e) {
			// The table writes any disjunction of ≥ 2 atoms as A; its member
			// IRIs do not consume letters (the paper's Ab* row has b as the
			// first letter after the A).
			b.WriteString("A")
			return
		}
		if prec > 0 {
			b.WriteByte('(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteByte('|')
			}
			writeType(s, names, b, 1)
		}
		if prec > 0 {
			b.WriteByte(')')
		}
	case regex.Concat:
		if prec > 1 {
			b.WriteByte('(')
		}
		for _, s := range e.Subs {
			writeType(s, names, b, 2)
		}
		if prec > 1 {
			b.WriteByte(')')
		}
	case regex.Star, regex.Plus, regex.Opt:
		sub := e.Sub()
		if sub.Kind != regex.Symbol && !isAtomDisjunction(sub) {
			b.WriteByte('(')
			writeType(sub, names, b, 0)
			b.WriteByte(')')
		} else {
			writeType(sub, names, b, 3)
		}
		switch e.Kind {
		case regex.Star:
			b.WriteByte('*')
		case regex.Plus:
			b.WriteByte('+')
		case regex.Opt:
			b.WriteByte('?')
		}
	}
}

// isAtomDisjunction recognizes the empirical A class: a disjunction of at
// least two atoms (IRIs or inverses of IRIs), or a negated property set.
func isAtomDisjunction(e *regex.Expr) bool {
	if e.Kind == regex.Symbol {
		return sparql.ReadPathSymbol(e.Sym).Negated
	}
	if e.Kind != regex.Union {
		return false
	}
	for _, s := range e.Subs {
		if s.Kind != regex.Symbol {
			return false
		}
	}
	return true
}

// Table8Row is an aggregated row of Table 8.
type Table8Row string

// The rows of Table 8 (transitive rows first, then non-transitive).
const (
	RowAStar         Table8Row = "a*"
	RowABStar        Table8Row = "ab*, a+"
	RowABStarCStar   Table8Row = "ab*c*"
	RowCapAStar      Table8Row = "A*"
	RowABStarC       Table8Row = "ab*c"
	RowAStarBStar    Table8Row = "a*b*"
	RowABCStar       Table8Row = "abc*"
	RowAOptBStar     Table8Row = "a?b*"
	RowCapAPlus      Table8Row = "A+"
	RowCapABStar     Table8Row = "Ab*"
	RowOtherTrans    Table8Row = "Other transitive"
	RowSeq           Table8Row = "a1...ak"
	RowCapA          Table8Row = "A"
	RowCapAOpt       Table8Row = "A?"
	RowSeqOpt        Table8Row = "a1a2?...ak?"
	RowInverse       Table8Row = "^a"
	RowABCOpt        Table8Row = "abc?"
	RowOtherNonTrans Table8Row = "Other non-transitive"
)

// Table8Rows lists the rows in the paper's order.
var Table8Rows = []Table8Row{
	RowAStar, RowABStar, RowABStarCStar, RowCapAStar, RowABStarC,
	RowAStarBStar, RowABCStar, RowAOptBStar, RowCapAPlus, RowCapABStar,
	RowOtherTrans,
	RowSeq, RowCapA, RowCapAOpt, RowSeqOpt, RowInverse, RowABCOpt,
	RowOtherNonTrans,
}

// Classify maps a property path to its Table 8 row, applying the paper's
// aggregations: a type and its reverse share a row, ^atom counts as an
// atom (except for the bare ^a row), and disjunction subexpressions count
// as A.
func Classify(e *regex.Expr) Table8Row {
	// the bare-inverse row is special-cased before letter canonicalization
	if e.Kind == regex.Symbol {
		if sym := sparql.ReadPathSymbol(e.Sym); !sym.Negated {
			if _, inverse, _ := sym.Next(); inverse {
				return RowInverse
			}
		}
	}
	t := TypeString(e)
	if row, ok := typeToRow[t]; ok {
		return row
	}
	if rev, ok := typeToRow[reverseType(t)]; ok {
		return rev
	}
	// generic sequences
	if row, ok := classifySequence(t); ok {
		return row
	}
	if IsTransitive(e) {
		return RowOtherTrans
	}
	return RowOtherNonTrans
}

var typeToRow = map[string]Table8Row{
	"a*":    RowAStar,
	"ab*":   RowABStar,
	"a+":    RowABStar,
	"aa*":   RowABStar, // a/a* ≡ a+
	"ab*c*": RowABStarCStar,
	"A*":    RowCapAStar,
	"ab*c":  RowABStarC,
	"a*b*":  RowAStarBStar,
	"abc*":  RowABCStar,
	"a?b*":  RowAOptBStar,
	"A+":    RowCapAPlus,
	// The paper writes this row "Ab*"; with A not consuming letters, the
	// canonical type string is "Aa*".
	"Aa*": RowCapABStar,
	"a":   RowSeq,
	"A":   RowCapA,
	"A?":  RowCapAOpt,
}

// reverseType reverses a type string at the factor level ("ab*" → "a*b",
// then letters are re-canonicalized; e.g. reverse of "ab*" is "a*b" whose
// canonical form after renaming is "a*b" — the table aggregates it into
// the ab* row). A type that is not a plain factor sequence, such as
// "a*|b", reverses to "", which is no row.
func reverseType(t string) string {
	factors := splitFactors(t)
	// reverse and re-letter
	rename := map[byte]byte{}
	var b strings.Builder
	next := byte('a')
	for i := len(factors) - 1; i >= 0; i-- {
		f := factors[i]
		c := f[0]
		if c == 'A' {
			b.WriteString(f)
			continue
		}
		nc, ok := rename[c]
		if !ok {
			nc = next
			next++
			rename[c] = nc
		}
		b.WriteByte(nc)
		b.WriteString(f[1:])
	}
	return b.String()
}

// classifySequence recognizes the generic rows a1…ak (all distinct plain
// atoms, k ≥ 1 — the paper's most common non-transitive row at 24.26%
// Valid / 66.41% Unique) and a1 a2?…ak? (one atom followed by optional
// atoms).
func classifySequence(t string) (Table8Row, bool) {
	factors := splitFactors(t)
	if len(factors) == 0 {
		return "", false
	}
	allPlain := true
	for _, f := range factors {
		if f[0] == 'A' || len(f) > 1 && !isDigitSuffix(f[1:]) {
			allPlain = false
			break
		}
	}
	if allPlain {
		return RowSeq, true
	}
	// a1 a2? … ak?
	if len(factors) >= 2 {
		ok := factors[0][0] != 'A' && !strings.ContainsAny(factors[0], "*+?")
		for _, f := range factors[1:] {
			if f[0] == 'A' || !strings.HasSuffix(f, "?") {
				ok = false
				break
			}
		}
		if ok {
			return RowSeqOpt, true
		}
	}
	// abc? pattern: plain atoms with a final optional
	if len(factors) >= 2 {
		last := factors[len(factors)-1]
		ok := strings.HasSuffix(last, "?") && last[0] != 'A'
		for _, f := range factors[:len(factors)-1] {
			if f[0] == 'A' || strings.ContainsAny(f, "*+?") {
				ok = false
				break
			}
		}
		if ok {
			return RowABCOpt, true
		}
	}
	return "", false
}

func splitFactors(t string) []string {
	var factors []string
	for i := 0; i < len(t); {
		if t[i] == '(' || t[i] == '|' || t[i] == ')' {
			return nil // not a plain factor sequence
		}
		j := i + 1
		for j < len(t) && t[j] >= '0' && t[j] <= '9' {
			j++
		}
		if j < len(t) && (t[j] == '*' || t[j] == '+' || t[j] == '?') {
			j++
		}
		factors = append(factors, t[i:j])
		i = j
	}
	return factors
}

func isDigitSuffix(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
