package propertypath

import (
	"encoding/binary"

	"repro/internal/automata"
	"repro/internal/chare"
	"repro/internal/regex"
)

// IsSimpleTransitive implements the simple transitive expressions of
// Martens & Trautner (Section 9.6): expressions of the shape
// T1 · A* · T2 (or with A⁺, or with no transitive part at all), where T1
// and T2 are sequences of bounded factors — atoms or disjunctions of
// atoms, possibly with ? — and A is a disjunction of atoms. At most one
// transitive factor is allowed; a*b* is the canonical non-member
// (Section 9.6 reports it as the main reason real paths fall outside the
// class).
func IsSimpleTransitive(e *regex.Expr) bool {
	c, ok := chare.Parse(e)
	if !ok {
		return false
	}
	transitive := 0
	for _, f := range c.Factors {
		switch f.Mod {
		case chare.Star, chare.Plus:
			transitive++
		}
	}
	return transitive <= 1
}

// transitionMonoid enumerates the transition monoid of the minimal total
// DFA of e: all functions states→states induced by words, including the
// identity (empty word).
func transitionMonoid(d *automata.DFA) (elements [][]int, finalOf func([]int) bool) {
	n := d.NumStates()
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	// key writes f's full state ids as uvarints, a prefix-free code, so
	// distinct functions never share a key.
	var buf []byte
	key := func(f []int) []byte {
		buf = buf[:0]
		for _, x := range f {
			buf = binary.AppendUvarint(buf, uint64(x))
		}
		return buf
	}
	gens := make([][]int, 0, len(d.Alphabet))
	for l := range d.Alphabet {
		g := make([]int, n)
		for q := 0; q < n; q++ {
			g[q] = d.Step(q, l)
		}
		gens = append(gens, g)
	}
	seen := map[string]bool{string(key(id)): true}
	elements = [][]int{id}
	for i := 0; i < len(elements); i++ {
		for _, g := range gens {
			comp := make([]int, n)
			for q := 0; q < n; q++ {
				comp[q] = g[elements[i][q]]
			}
			if k := key(comp); !seen[string(k)] {
				seen[string(k)] = true
				elements = append(elements, comp)
			}
		}
	}
	finalOf = func(f []int) bool { return d.Final[f[0]] }
	return elements, finalOf
}

func compose(f, g []int) []int {
	// (f then g): word uv with f = δ_u, g = δ_v gives q ↦ g[f[q]]
	out := make([]int, len(f))
	for q := range f {
		out[q] = g[f[q]]
	}
	return out
}

// idempotentPower returns e = m^k with e∘e = e (exists for every element
// of a finite monoid).
func idempotentPower(m []int) []int {
	// Iterate m, m², m³, …; the sequence enters a cycle that contains an
	// idempotent, so this terminates within the monoid size.
	cur := append([]int(nil), m...)
	for {
		if equalFn(compose(cur, cur), cur) {
			return cur
		}
		cur = compose(cur, m)
	}
}

func equalFn(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InCtract approximates membership in the tractability class C_tract of
// Bagan, Bonifati & Groz (Section 9.6): the regular languages whose
// simple-path evaluation problem is in PTIME (assuming P ≠ NP). The
// implemented, exactly decidable proxy is *closure under loop pumping* —
// ∃ i ∀ u,v,w: u vⁱ w ∈ L ⇒ u vʲ w ∈ L for all j ≥ i — decided on the
// transition monoid of the minimal DFA: for every element m with
// idempotent power e and all x, y in the monoid, accept(x·e·y) must imply
// accept(x·e·m·y). The proxy separates the canonical hard case (aa)*
// (parity breaks under pumping) from the tractable shapes the log study
// found — a*, ab*, downward-closed languages, bounded languages — and is
// documented as an approximation in DESIGN.md.
func InCtract(e *regex.Expr) bool {
	d := automata.ToDFA(e)
	elements, finalOf := transitionMonoid(d)
	for _, m := range elements {
		em := idempotentPower(m)
		eThenM := compose(em, m)
		for _, x := range elements {
			xe := compose(x, em)
			xem := compose(x, eThenM)
			for _, y := range elements {
				if finalOf(compose(xe, y)) && !finalOf(compose(xem, y)) {
					return false
				}
			}
		}
	}
	return true
}

// IsDownwardClosed reports whether L(e) is closed under subsequences
// (deleting edges of a path keeps it matching). Downward-closed languages
// are tractable under both simple-path and trail semantics. It decides
// L(e) = ↓L(e); since ↓L(e) = L(e↓) and L(e) ⊆ L(e↓) always holds, that
// is one containment check.
func IsDownwardClosed(e *regex.Expr) bool {
	return automata.Contains(down(e), e)
}

// down returns e↓, e with every symbol a read as a?: its language is the
// set of subsequences of the words of L(e).
func down(e *regex.Expr) *regex.Expr {
	if e.Kind == regex.Symbol {
		return regex.NewOpt(e)
	}
	d := &regex.Expr{Kind: e.Kind}
	for _, s := range e.Subs {
		d.Subs = append(d.Subs, down(s))
	}
	return d
}

// Tractability returns InCtract(e) and a documented approximation of the
// trail-semantics tractability class T_tract of Martens, Niewerth &
// Trautner: C_tract is a subclass of T_tract, and downward-closed
// languages are trail-tractable; the union of the two covers every
// property path shape occurring in the log study (the paper reports only
// 93 (14) paths outside T_tract in 55M). A full implementation of the MNT
// characterization is out of scope; see DESIGN.md.
func Tractability(e *regex.Expr) (ctract, ttract bool) {
	ctract = InCtract(e)
	return ctract, ctract || IsDownwardClosed(e)
}
