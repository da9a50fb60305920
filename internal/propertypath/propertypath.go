// Package propertypath implements SPARQL 1.1 property paths — SPARQL's
// regular path queries (Section 9.2 of "Towards Theory for Real-World
// Data") — together with the analyses of Section 9.6: the *type*
// canonicalization behind Table 8, the simple-transitive-expression test of
// Martens & Trautner (covering over 99% of real property paths), the
// tractability classes C_tract (Bagan, Bonifati & Groz; simple-path
// semantics) and T_tract (trail semantics), and evaluation under regular,
// simple-path and trail semantics.
//
// A path is its 2RPQ: a *regex.Expr over the extended alphabet Σ ∪ Σ⁻, as
// package sparql parses it (sparql.ParsePath for a standalone path). A
// forward atom wdt:P31 is the symbol "wdt:P31", an inverse atom the symbol
// "^wdt:P31", and a negated property set one symbol "!(a|^b|…)" listing
// its forward members, then its inverse ones, each sorted. ^ over a
// compound path is already pushed down to the atoms. Package sparql owns
// this symbol format: its parser writes the symbols, and this package
// reads them only through sparql.ReadPathSymbol.
package propertypath

import "repro/internal/regex"

// IsTransitive reports whether the path can match arbitrarily long paths
// (it uses * or +) — the top/bottom split of Table 8.
func IsTransitive(e *regex.Expr) bool {
	if e.Kind == regex.Star || e.Kind == regex.Plus {
		return true
	}
	for _, s := range e.Subs {
		if IsTransitive(s) {
			return true
		}
	}
	return false
}
