package edtd

import (
	"testing"

	"repro/internal/regex"
	"repro/internal/tree"
)

// example411 is the EDTD of Example 4.11:
//
//	persons          → person*
//	person           → name (birthplace-US + birthplace-Intl)
//	birthplace-US    → city state country?
//	birthplace-Intl  → city state country
//
// with μ(birthplace-US) = μ(birthplace-Intl) = birthplace.
func example411() *EDTD {
	return New().
		AddType("persons", "persons", regex.MustParse("person*")).
		AddType("person", "person", regex.MustParse("name (birthplace-US + birthplace-Intl)")).
		AddType("name", "name", regex.NewEpsilon()).
		AddType("birthplace-US", "birthplace", regex.MustParse("city state country?")).
		AddType("birthplace-Intl", "birthplace", regex.MustParse("city state country")).
		AddType("city", "city", regex.NewEpsilon()).
		AddType("state", "state", regex.NewEpsilon()).
		AddType("country", "country", regex.NewEpsilon()).
		AddStart("persons")
}

// figure2a is the single-type EDTD of Figure 2a.
func figure2a() *EDTD {
	return New().
		AddType("a", "a", regex.MustParse("b + c")).
		AddType("b", "b", regex.MustParse("e d1 f")).
		AddType("c", "c", regex.MustParse("e d2 f")).
		AddType("d1", "d", regex.MustParse("g h1 i")).
		AddType("d2", "d", regex.MustParse("g h2 i")).
		AddType("h1", "h", regex.MustParse("j")).
		AddType("h2", "h", regex.MustParse("k")).
		AddType("e", "e", regex.NewEpsilon()).
		AddType("f", "f", regex.NewEpsilon()).
		AddType("g", "g", regex.NewEpsilon()).
		AddType("i", "i", regex.NewEpsilon()).
		AddType("j", "j", regex.NewEpsilon()).
		AddType("k", "k", regex.NewEpsilon()).
		AddStart("a")
}

func figure1Tree() *tree.Node {
	return tree.MustParse("persons(person(name, birthplace(city, state, country)), person(name, birthplace(city, state)))")
}

func TestExample411Validation(t *testing.T) {
	d := example411()
	// "The tree in Figure 1c is in the language of the schema."
	if !d.Valid(figure1Tree()) {
		t.Fatal("Figure 1c tree should satisfy Example 4.11 EDTD")
	}
	bad := []string{
		"persons(person(name, birthplace(city)))",
		"persons(person(birthplace(city, state)))",
		"person(name, birthplace(city, state))",
	}
	for _, s := range bad {
		if d.Valid(tree.MustParse(s)) {
			t.Errorf("tree %q should be invalid", s)
		}
	}
}

func TestWitnessTyping(t *testing.T) {
	d := example411()
	w := d.Witness(figure1Tree())
	if w == nil {
		t.Fatal("no witness for a valid tree")
	}
	// The first (3-child) birthplace may use either type; the second
	// (2-child) must be typed birthplace-US.
	second := w.Children[1].Children[1]
	if second.Label != "birthplace-US" {
		t.Errorf("second birthplace typed %q, want birthplace-US", second.Label)
	}
	if d.Witness(tree.MustParse("persons(name)")) != nil {
		t.Error("witness for invalid tree")
	}
}

func TestEDCViolation(t *testing.T) {
	// Example 4.11 violates Element Declarations Consistent: both
	// birthplace types occur in the same rule.
	d := example411()
	if d.IsSingleType() {
		t.Error("Example 4.11 should not be single-type")
	}
	v := d.EDCViolations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly 1", v)
	}
	// Figure 2a satisfies EDC: d1/d2 and h1/h2 never share a rule.
	if !figure2a().IsSingleType() {
		t.Error("Figure 2a should be single-type")
	}
	if v := figure2a().EDCViolations(); len(v) != 0 {
		t.Errorf("Figure 2a violations = %v", v)
	}
}

func TestFigure2aValidation(t *testing.T) {
	d := figure2a()
	// Under b, h must contain j; under c, h must contain k.
	good := []string{
		"a(b(e, d(g, h(j), i), f))",
		"a(c(e, d(g, h(k), i), f))",
	}
	bad := []string{
		"a(b(e, d(g, h(k), i), f))", // k under b-branch
		"a(c(e, d(g, h(j), i), f))", // j under c-branch
		"a(b(e, f))",
		"b(e, d(g, h(j), i), f)",
	}
	for _, s := range good {
		if !d.Valid(tree.MustParse(s)) {
			t.Errorf("tree %q should be valid", s)
		}
		if !d.ValidSingleType(tree.MustParse(s)) {
			t.Errorf("single-type validation rejects %q", s)
		}
	}
	for _, s := range bad {
		if d.Valid(tree.MustParse(s)) {
			t.Errorf("tree %q should be invalid", s)
		}
		if d.ValidSingleType(tree.MustParse(s)) {
			t.Errorf("single-type validation accepts %q", s)
		}
	}
}

func TestSingleTypeAgreesWithGeneralValidation(t *testing.T) {
	d := figure2a()
	trees := []string{
		"a(b(e, d(g, h(j), i), f))",
		"a(c(e, d(g, h(k), i), f))",
		"a(b(e, d(g, h(j), i), f), b(e, d(g, h(j), i), f))",
		"a(b(e, d(g, h(j, j), i), f))",
		"a",
		"x",
	}
	for _, s := range trees {
		tr := tree.MustParse(s)
		if d.Valid(tr) != d.ValidSingleType(tr) {
			t.Errorf("general and single-type validation disagree on %q", s)
		}
	}
}

func TestStructurallyDTDExpressible(t *testing.T) {
	// Bex et al. (Section 4.4): most real XSDs are structurally equivalent
	// to DTDs; Figure 2a is one of the exceptions (types depend on the
	// ancestor context).
	if figure2a().StructurallyDTDExpressible() {
		t.Error("Figure 2a uses complex types beyond DTDs")
	}
	// An EDTD whose same-label types have equivalent content IS expressible.
	d := New().
		AddType("r", "r", regex.MustParse("x1 + x2")).
		AddType("x1", "x", regex.MustParse("y?")).
		AddType("x2", "x", regex.MustParse("y?")).
		AddType("y", "y", regex.NewEpsilon()).
		AddStart("r")
	if !d.StructurallyDTDExpressible() {
		t.Error("equivalent-content types should be DTD-expressible")
	}
	// Example 4.11 is not structurally DTD-expressible (country? vs country).
	if example411().StructurallyDTDExpressible() {
		t.Error("Example 4.11 should not be structurally DTD-expressible")
	}
}

func TestToDTDOverapproximates(t *testing.T) {
	d := figure2a()
	cand := d.ToDTD()
	for _, s := range []string{
		"a(b(e, d(g, h(j), i), f))",
		"a(c(e, d(g, h(k), i), f))",
		// DTD erasure also accepts the "crossed" trees:
		"a(b(e, d(g, h(k), i), f))",
	} {
		if err := cand.Validate(tree.MustParse(s)); err != nil {
			t.Errorf("candidate DTD rejects %q: %v", s, err)
		}
	}
}

func TestTypeDependencyDepth(t *testing.T) {
	// Figure 2a's h-types depend on an ancestor further than the parent
	// (h's parent is always d; the discriminator is b vs c higher up), so
	// the dependency depth is 2 in the paper's parent/grandparent sense...
	// measured from the node: parent label d (depth 1) does not decide;
	// grandparent chain "d/b" vs "d/c" (depth 2) does.
	got := figure2a().TypeDependencyDepth(4)
	if got != 2 {
		t.Errorf("TypeDependencyDepth = %d, want 2", got)
	}
	// Example 4.11's birthplace types can occur under identical contexts,
	// so no finite context depth separates them.
	if got := example411().TypeDependencyDepth(4); got != -1 {
		t.Errorf("Example 4.11 TypeDependencyDepth = %d, want -1", got)
	}
}

func TestSTEDTDContainment(t *testing.T) {
	base := figure2a()
	if !Contains(base, base) {
		t.Error("reflexivity failed")
	}
	// widen the h1 rule from j to j? — a strict superset
	wide := figure2a()
	wide.Rules["h1"] = regex.MustParse("j?")
	if !Contains(base, wide) {
		t.Error("base ⊆ wide should hold")
	}
	if Contains(wide, base) {
		t.Error("wide ⊄ base (h without j exists only in wide)")
	}
	if !Contains(base, figure2a()) || !Contains(figure2a(), base) {
		t.Error("identical schemas should be equivalent")
	}
	// crossing the h-content between contexts changes the language
	crossed := figure2a()
	crossed.Rules["h1"], crossed.Rules["h2"] = crossed.Rules["h2"], crossed.Rules["h1"]
	if Contains(base, crossed) || Contains(crossed, base) {
		t.Error("swapped h-contents should be incomparable")
	}
}

func TestSTEDTDContainmentIgnoresUnrealizable(t *testing.T) {
	// A type whose rule requires an unsatisfiable child must not affect
	// containment.
	d1 := New().
		AddType("r", "r", regex.MustParse("x + b")).
		AddType("x", "x", regex.NewEpsilon()).
		AddType("b", "b", regex.MustParse("c")).
		AddType("c", "c", regex.MustParse("c")). // infinite descent: unrealizable
		AddStart("r")
	d2 := New().
		AddType("r", "r", regex.MustParse("x")).
		AddType("x", "x", regex.NewEpsilon()).
		AddStart("r")
	if !Contains(d1, d2) {
		t.Error("unrealizable branch must not break containment")
	}
}

func TestSTEDTDContainmentAgainstSampling(t *testing.T) {
	base := figure2a()
	wide := figure2a()
	wide.Rules["d1"] = regex.MustParse("g h1 i?")
	if !Contains(base, wide) {
		t.Fatal("base ⊆ wide")
	}
	// every tree valid for base must be valid for wide
	for _, s := range []string{
		"a(b(e, d(g, h(j), i), f))",
		"a(c(e, d(g, h(k), i), f))",
	} {
		tr := tree.MustParse(s)
		if base.Valid(tr) && !wide.Valid(tr) {
			t.Errorf("containment violated on %s", s)
		}
	}
}
