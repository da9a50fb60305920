package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/dtd"
	"repro/internal/edtd"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
	"repro/internal/tree"
)

// schemaContainment cross-checks DTD containment against (a) the
// single-type EDTD containment decision on the trivial type-per-label
// embedding, and (b) randomized counterexample search over documents
// sampled from the would-be sublanguage. It also pits the two EDTD
// validators (bottom-up possible-type sets vs top-down single-type
// typing) against each other and against the DTD validator, the
// streaming validator against the tree validator, and DTD intersection
// against realizability (one DTD) and against sampled documents valid
// under both DTDs.
type schemaContainment struct{}

func (schemaContainment) Name() string { return "schema-containment" }

func (schemaContainment) Description() string {
	return "dtd.Contains vs edtd.Contains on trivial EDTDs, vs sampled trees; Valid vs top-down single-type typing vs dtd.Validate vs ValidateStream; IntersectionNonEmpty vs realizability and sampled trees"
}

// schemaLabels is layered: the content model of labels[i] only uses
// labels[i+1:], so every valid document has depth <= len(schemaLabels)
// and tree sampling always terminates.
var schemaLabels = []string{"r", "s", "t", "u"}

// randomLayeredDTD draws a DTD over schemaLabels with root "r".
func randomLayeredDTD(r *rand.Rand) *dtd.DTD {
	d := dtd.New()
	for i, l := range schemaLabels {
		rest := schemaLabels[i+1:]
		var e *regex.Expr
		if len(rest) == 0 || r.Float64() < 0.25 {
			e = regex.NewEpsilon()
		} else {
			g := regex.DefaultGen(rest)
			g.MaxDepth = 3
			g.MaxFanout = 3
			e = g.Random(r)
			// containment determinizes content models; keep them small
			for tries := 0; posCount(e) > 6 && tries < 4; tries++ {
				e = g.Random(r)
			}
			if posCount(e) > 6 {
				e = regex.NewSymbol(rest[r.Intn(len(rest))])
			}
		}
		d.AddRule(l, e)
	}
	d.AddStart("r")
	return d
}

// sampleDTDTree samples a random valid document of d (layered DTDs
// only), or nil when the root's language is empty.
func sampleDTDTree(d *dtd.DTD, r *rand.Rand) *tree.Node {
	var build func(label string) *tree.Node
	build = func(label string) *tree.Node {
		n := tree.New(label)
		rule := d.Rule(label)
		w, ok := regex.RandomWord(rule, r)
		if !ok {
			return nil
		}
		for _, child := range w {
			c := build(child)
			if c == nil {
				return nil
			}
			n.Add(c)
		}
		return n
	}
	return build("r")
}

// streamValid is the streaming verdict under test; it carries the
// deliberate-mutation hook, which makes the validator accept every
// element at its close.
func streamValid(d *dtd.DTD, t *tree.Node) bool {
	v := dtd.NewStreamValidator(d)
	for _, ev := range dtd.Events(t) {
		if err := v.Feed(ev); err != nil && (ev.Open || injectedBug != "schema-containment") {
			return false
		}
	}
	return v.Close() == nil
}

// startRealizable reports whether some start label of d is realizable,
// that is, whether any document is valid under d.
func startRealizable(d *dtd.DTD) bool {
	real := d.Realizable()
	for s := range d.Start {
		if real[s] {
			return true
		}
	}
	return false
}

// trivialEDTD embeds a DTD as the single-type EDTD with one type per
// label (mu = identity).
func trivialEDTD(d *dtd.DTD) *edtd.EDTD {
	e := edtd.New()
	for label, rule := range d.Rules {
		e.AddType(label, label, rule.Clone())
	}
	for label := range d.Start {
		e.AddStart(label)
	}
	return e
}

func (o schemaContainment) Trial(r *rand.Rand) *Divergence {
	d1, d2 := randomLayeredDTD(r), randomLayeredDTD(r)

	if !dtd.Contains(d1, d1) {
		return &Divergence{
			Input:  fmt.Sprintf("d1=%q", d1.String()),
			Detail: "dtd.Contains(d1,d1)=false (reflexivity violated)",
		}
	}

	c := dtd.Contains(d1, d2)
	e1, e2 := trivialEDTD(d1), trivialEDTD(d2)
	if ec := edtd.Contains(e1, e2); ec != c {
		d1, d2 = shrinkDTDPair(d1, d2, func(a, b *dtd.DTD) bool {
			return edtd.Contains(trivialEDTD(a), trivialEDTD(b)) != dtd.Contains(a, b)
		})
		return &Divergence{
			Input:  fmt.Sprintf("d1=%q d2=%q", d1.String(), d2.String()),
			Detail: fmt.Sprintf("dtd.Contains=%v but edtd.Contains on trivial embedding=%v", dtd.Contains(d1, d2), edtd.Contains(trivialEDTD(d1), trivialEDTD(d2))),
		}
	}

	if dtd.IntersectionNonEmpty(d1) != startRealizable(d1) {
		d1, _ = shrinkDTDPair(d1, d2, func(a, _ *dtd.DTD) bool {
			return dtd.IntersectionNonEmpty(a) != startRealizable(a)
		})
		return &Divergence{
			Input: fmt.Sprintf("d1=%q", d1.String()),
			Detail: fmt.Sprintf("IntersectionNonEmpty(d1)=%v but some start label realizable=%v",
				dtd.IntersectionNonEmpty(d1), startRealizable(d1)),
		}
	}
	inter := dtd.IntersectionNonEmpty(d1, d2)
	// stream reports a tree on which d's streaming and tree validators
	// disagree, shrunk.
	stream := func(name string, d *dtd.DTD, t *tree.Node) *Divergence {
		diverges := func(c *tree.Node) bool { return streamValid(d, c) != (d.Validate(c) == nil) }
		if !diverges(t) {
			return nil
		}
		t = shrinkTree(t, diverges)
		return &Divergence{
			Input:  fmt.Sprintf("%s=%q tree=%s", name, d.String(), t),
			Detail: fmt.Sprintf("ValidateStream valid=%v but Validate valid=%v", streamValid(d, t), d.Validate(t) == nil),
		}
	}

	toDTD := e1.ToDTD()
	for i := 0; i < 6; i++ {
		t := sampleDTDTree(d1, r)
		if t == nil {
			break
		}
		if err := d1.Validate(t); err != nil {
			t = shrinkTree(t, func(c *tree.Node) bool { return d1.Validate(c) != nil })
			return &Divergence{
				Input:  fmt.Sprintf("d1=%q tree=%s", d1.String(), t),
				Detail: fmt.Sprintf("tree sampled from d1 rejected by d1.Validate: %v", d1.Validate(t)),
			}
		}
		if c {
			if err := d2.Validate(t); err != nil {
				t = shrinkTree(t, func(c2 *tree.Node) bool {
					return d1.Validate(c2) == nil && d2.Validate(c2) != nil
				})
				return &Divergence{
					Input:  fmt.Sprintf("d1=%q d2=%q tree=%s", d1.String(), d2.String(), t),
					Detail: "dtd.Contains(d1,d2)=true refuted by a sampled document of L(d1) outside L(d2)",
				}
			}
		}
		if !inter && d2.Validate(t) == nil {
			t = shrinkTree(t, func(c2 *tree.Node) bool {
				return d1.Validate(c2) == nil && d2.Validate(c2) == nil
			})
			return &Divergence{
				Input:  fmt.Sprintf("d1=%q d2=%q tree=%s", d1.String(), d2.String(), t),
				Detail: "IntersectionNonEmpty(d1,d2)=false refuted by a sampled document valid under both",
			}
		}
		if got, want := e1.Valid(t), d1.Validate(t) == nil; got != want {
			t = shrinkTree(t, func(c2 *tree.Node) bool {
				return e1.Valid(c2) != (d1.Validate(c2) == nil)
			})
			return &Divergence{
				Input:  fmt.Sprintf("d1=%q tree=%s", d1.String(), t),
				Detail: fmt.Sprintf("edtd.Valid=%v but dtd.Validate says %v on the trivial embedding", e1.Valid(t), d1.Validate(t) == nil),
			}
		}
		if got, want := validSingleType(e1, t), e1.Valid(t); got != want {
			t = shrinkTree(t, func(c2 *tree.Node) bool {
				return validSingleType(e1, c2) != e1.Valid(c2)
			})
			return &Divergence{
				Input:  fmt.Sprintf("d1=%q tree=%s", d1.String(), t),
				Detail: fmt.Sprintf("validSingleType=%v but Valid=%v on a single-type EDTD", validSingleType(e1, t), e1.Valid(t)),
			}
		}
		if e1.Valid(t) && toDTD.Validate(t) != nil {
			t = shrinkTree(t, func(c2 *tree.Node) bool {
				return e1.Valid(c2) && toDTD.Validate(c2) != nil
			})
			return &Divergence{
				Input:  fmt.Sprintf("edtd=%q tree=%s", e1.String(), t),
				Detail: "tree valid for the EDTD but rejected by its ToDTD over-approximation (L(E) ⊆ L(ToDTD(E)) violated)",
			}
		}
		// resample bias: mutate the sampled tree and re-check the two
		// EDTD validators on near-miss documents too
		mt := mutateTree(t, r)
		for _, c := range []struct {
			name string
			d    *dtd.DTD
			t    *tree.Node
		}{{"d1", d1, t}, {"d2", d2, t}, {"d1", d1, mt}, {"d2", d2, mt}} {
			if div := stream(c.name, c.d, c.t); div != nil {
				return div
			}
		}
		if got, want := validSingleType(e1, mt), e1.Valid(mt); got != want {
			mt = shrinkTree(mt, func(c2 *tree.Node) bool {
				return validSingleType(e1, c2) != e1.Valid(c2)
			})
			return &Divergence{
				Input:  fmt.Sprintf("d1=%q tree=%s", d1.String(), mt),
				Detail: fmt.Sprintf("validSingleType=%v but Valid=%v on a single-type EDTD (mutated document)", validSingleType(e1, mt), e1.Valid(mt)),
			}
		}
	}
	return nil
}

// validSingleType validates t against a single-type EDTD by
// deterministic top-down typing (the reason XML Schema validation is
// streamable), matching each child word with ref.Matches. It is the
// reference for edtd's bottom-up Valid, which /v1/validate serves for
// both edtd and single-type requests. It panics if d is not single-type.
func validSingleType(d *edtd.EDTD, t *tree.Node) bool {
	if !d.IsSingleType() {
		panic("oracle: validSingleType on a non-single-type EDTD")
	}
	for s := range d.Start {
		if d.Label(s) == t.Label {
			return validAs(d, t, s)
		}
	}
	return false
}

// validAs reports whether t is valid under type typ of d.
func validAs(d *edtd.EDTD, t *tree.Node, typ string) bool {
	if !ref.Matches(d.LabelRule(typ), t.ChildWord()) {
		return false
	}
	// Each label has one type in ρ(typ) (the single-type property).
	typeOf := map[string]string{}
	for _, ty := range d.Rule(typ).Alphabet() {
		typeOf[d.Label(ty)] = ty
	}
	for _, c := range t.Children {
		ct, ok := typeOf[c.Label]
		if !ok || !validAs(d, c, ct) {
			return false
		}
	}
	return true
}

// mutateTree returns a copy of t with one random structural edit:
// deleting a child, duplicating a child, or relabeling a node.
func mutateTree(t *tree.Node, r *rand.Rand) *tree.Node {
	out := t.Clone()
	var nodes []*tree.Node
	out.Walk(func(n *tree.Node) { nodes = append(nodes, n) })
	n := nodes[r.Intn(len(nodes))]
	switch r.Intn(3) {
	case 0:
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
		}
	case 1:
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children, n.Children[i].Clone())
		}
	default:
		n.Label = schemaLabels[r.Intn(len(schemaLabels))]
	}
	return out
}

// shrinkDTDPair shrinks the content models of both DTDs while the
// divergence predicate holds.
func shrinkDTDPair(d1, d2 *dtd.DTD, diverges func(a, b *dtd.DTD) bool) (*dtd.DTD, *dtd.DTD) {
	shrinkOne := func(d, other *dtd.DTD, first bool) {
		for _, l := range schemaLabels {
			rule := d.Rule(l)
			d.Rules[l] = shrinkExpr(rule, func(c *regex.Expr) bool {
				saved := d.Rules[l]
				d.Rules[l] = c
				var ok bool
				if first {
					ok = diverges(d, other)
				} else {
					ok = diverges(other, d)
				}
				d.Rules[l] = saved
				return ok
			})
		}
	}
	shrinkOne(d1, d2, true)
	shrinkOne(d2, d1, false)
	return d1, d2
}
