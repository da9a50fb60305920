package edtd

import (
	"context"

	"repro/internal/automata"
	"repro/internal/dtd"
)

// Containment for single-type EDTDs. Section 4.3: "Problems such as
// Intersection and Containment for XML Schema or single-type EDTDs are
// known to reduce to the corresponding problems for regular expressions".
// The reduction exploits that single-type EDTDs assign types top-down
// deterministically: a node's type is a function of its root path, so two
// stEDTDs can be compared by walking reachable TYPE PAIRS and checking
// label-projected content-language containment at each pair.

// Realizable returns the set of types admitting a finite valid subtree:
// the DTD realizability fixpoint over the type alphabet.
func (d *EDTD) Realizable() map[string]bool {
	return (&dtd.DTD{Rules: d.Rules, Start: d.Start}).Realizable()
}

// Contains decides L(d1) ⊆ L(d2) for single-type EDTDs. It panics when
// either schema is not single-type (general EDTD containment is
// EXPTIME-complete and out of scope; cf. the principled XML containment
// literature cited in Section 4.5).
func Contains(d1, d2 *EDTD) bool {
	if !d1.IsSingleType() || !d2.IsSingleType() {
		panic("edtd: Contains requires single-type EDTDs")
	}
	real1 := d1.Realizable()
	keep := func(ty string) bool { return real1[ty] }
	project := func(ty string) (string, bool) { return d1.Label(ty), real1[ty] }

	// label → unique type maps per rule are implied by single-typedness;
	// we walk pairs (t1, t2) of types assigned to the same document node.
	type pair struct{ a, b string }
	var queue []pair
	seen := map[pair]bool{}
	// roots: every realizable start type of d1 must have a start type of
	// d2 with the same label.
	for s1 := range d1.Start {
		if !real1[s1] {
			continue
		}
		found := ""
		for s2 := range d2.Start {
			if d2.Label(s2) == d1.Label(s1) {
				found = s2
				break
			}
		}
		if found == "" {
			return false
		}
		p := pair{s1, found}
		seen[p] = true
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// label-projected, realizability-restricted content of t1 must be
		// contained in the label-projected content of t2
		e1 := d1.Rule(p.a)
		if ok, _ := automata.ContainsMappedCtx(context.TODO(), e1, project, d2.LabelRule(p.b)); !ok {
			return false
		}
		// successor pairs: each type useful under t1 is the unique child
		// type of its label there; pair it with d2's type of that label
		t2ByLabel := typeByLabel(d2, p.b)
		useful, _ := e1.Restrict(keep)
		for _, c1 := range useful {
			c2, ok := t2ByLabel[d1.Label(c1)]
			if !ok {
				// d2's content language admitted the label only if some
				// type carries it; the containment check above would
				// have failed otherwise, so this cannot happen for
				// single-type d2.
				return false
			}
			np := pair{c1, c2}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true
}

// typeByLabel maps each label occurring in ρ(t) to its unique type
// (single-typedness guarantees uniqueness).
func typeByLabel(d *EDTD, t string) map[string]string {
	out := map[string]string{}
	for _, ty := range d.Rule(t).Alphabet() {
		out[d.Label(ty)] = ty
	}
	return out
}
