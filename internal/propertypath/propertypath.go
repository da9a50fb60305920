// Package propertypath implements SPARQL 1.1 property paths — SPARQL's
// regular path queries (Section 9.2 of "Towards Theory for Real-World
// Data") — together with the analyses of Section 9.6: the *type*
// canonicalization behind Table 8, the simple-transitive-expression test of
// Martens & Trautner (covering over 99% of real property paths), the
// tractability classes C_tract (Bagan, Bonifati & Groz; simple-path
// semantics) and T_tract (trail semantics), and evaluation under regular,
// simple-path and trail semantics. Paths are parsed from SPARQL tokens by
// package sparql (sparql.ParsePath for a standalone path).
package propertypath

import "strings"

// Kind discriminates property-path AST nodes.
type Kind int

// Property-path node kinds. SPARQL syntax: iri, ^p (inverse), p1/p2
// (sequence), p1|p2 (alternative), p*, p+, p?, and !(...) negated property
// sets.
const (
	IRI Kind = iota
	Inverse
	Seq
	Alt
	Star
	Plus
	Opt
	NegSet // !(a|^b|…): any edge whose label is not listed
)

// Path is a property-path AST node.
type Path struct {
	Kind Kind
	IRI  string
	Subs []*Path
	// Neg holds the forbidden labels of a NegSet; NegInv the forbidden
	// inverse labels.
	Neg    []string
	NegInv []string
}

// Sub returns the single child of a unary node.
func (p *Path) Sub() *Path { return p.Subs[0] }

func (p *Path) String() string {
	return p.render(0)
}

// precedence: Alt < Seq < unary.
func (p *Path) render(prec int) string {
	switch p.Kind {
	case IRI:
		return p.IRI
	case Inverse:
		return "^" + p.Sub().render(3)
	case Seq:
		parts := make([]string, len(p.Subs))
		for i, s := range p.Subs {
			parts[i] = s.render(2)
		}
		out := strings.Join(parts, "/")
		if prec > 1 {
			return "(" + out + ")"
		}
		return out
	case Alt:
		parts := make([]string, len(p.Subs))
		for i, s := range p.Subs {
			parts[i] = s.render(1)
		}
		out := strings.Join(parts, "|")
		if prec > 0 {
			return "(" + out + ")"
		}
		return out
	case Star:
		return p.Sub().render(3) + "*"
	case Plus:
		return p.Sub().render(3) + "+"
	case Opt:
		return p.Sub().render(3) + "?"
	case NegSet:
		var parts []string
		parts = append(parts, p.Neg...)
		for _, x := range p.NegInv {
			parts = append(parts, "^"+x)
		}
		return "!(" + strings.Join(parts, "|") + ")"
	}
	return "?"
}

// Walk visits the path tree in preorder.
func (p *Path) Walk(f func(*Path)) {
	f(p)
	for _, s := range p.Subs {
		s.Walk(f)
	}
}

// IsTransitive reports whether the path can match arbitrarily long paths
// (it uses * or +) — the top/bottom split of Table 8.
func (p *Path) IsTransitive() bool {
	found := false
	p.Walk(func(x *Path) {
		if x.Kind == Star || x.Kind == Plus {
			found = true
		}
	})
	return found
}
