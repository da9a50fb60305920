package dtd

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/regex"
	"repro/internal/tree"
)

func TestDTDContainment(t *testing.T) {
	base := example42()
	// widening country? to country* gives a superset
	wide := New().
		AddRule("persons", regex.MustParse("person*")).
		AddRule("person", regex.MustParse("name birthplace")).
		AddRule("birthplace", regex.MustParse("city state country*")).
		AddStart("persons")
	if !Contains(base, wide) {
		t.Error("base ⊆ wide should hold")
	}
	if Contains(wide, base) {
		t.Error("wide ⊆ base should fail (two countries)")
	}
	if !Contains(base, base) {
		t.Error("reflexivity failed")
	}
	// different root
	other := New().AddRule("people", regex.MustParse("person*")).AddStart("people")
	if Contains(base, other) {
		t.Error("different start labels cannot contain")
	}
}

func TestDTDContainmentIgnoresUnrealizableParts(t *testing.T) {
	// d1 has a label b whose rule mentions an unrealizable c; since no
	// valid tree contains b, the mismatch with d2 must not matter.
	d1 := New().
		AddRule("r", regex.MustParse("x")).
		AddRule("x", regex.NewEpsilon()).
		AddRule("b", regex.MustParse("c")).
		AddRule("c", regex.NewEmpty()).
		AddStart("r")
	d2 := New().
		AddRule("r", regex.MustParse("x")).
		AddRule("x", regex.NewEpsilon()).
		AddStart("r")
	if !Contains(d1, d2) {
		t.Error("unrealizable rules must not break containment")
	}
}

func TestDTDContainmentAgainstSampling(t *testing.T) {
	// randomized soundness check: when Contains says yes, random valid
	// trees of d1 must validate against d2.
	r := rand.New(rand.NewSource(12))
	d1 := example42()
	d2 := New().
		AddRule("persons", regex.MustParse("person*")).
		AddRule("person", regex.MustParse("name birthplace?")).
		AddRule("birthplace", regex.MustParse("city state country?")).
		AddStart("persons")
	if !Contains(d1, d2) {
		t.Fatal("d1 ⊆ d2 should hold (birthplace? is wider)")
	}
	for i := 0; i < 100; i++ {
		tr := randomValidTree(r, d1)
		if tr == nil {
			continue
		}
		if err := d2.Validate(tr); err != nil {
			t.Fatalf("containment violated by sampled tree %v: %v", tr, err)
		}
	}
}

// randomValidTree samples a small valid tree of the Example 4.2 DTD.
func randomValidTree(r *rand.Rand, d *DTD) *tree.Node {
	root := tree.New("persons")
	for i := 0; i < r.Intn(3); i++ {
		p := tree.New("person")
		p.Add(tree.New("name"))
		bp := tree.New("birthplace")
		bp.Add(tree.New("city"), tree.New("state"))
		if r.Float64() < 0.5 {
			bp.Add(tree.New("country"))
		}
		p.Add(bp)
		root.Add(p)
	}
	if d.Validate(root) != nil {
		return nil
	}
	return root
}

func TestDTDIntersection(t *testing.T) {
	a := New().
		AddRule("r", regex.MustParse("x y?")).
		AddStart("r")
	b := New().
		AddRule("r", regex.MustParse("x? y?")).
		AddStart("r")
	if !IntersectionNonEmpty(a, b) {
		t.Error("r(x) satisfies both")
	}
	c := New().
		AddRule("r", regex.MustParse("y")).
		AddStart("r")
	if IntersectionNonEmpty(a, c) {
		t.Error("a needs x first, c forbids it")
	}
	// intersection with unrealizable requirement: d needs a z child whose
	// own rule is unsatisfiable in e
	d := New().
		AddRule("r", regex.MustParse("z")).
		AddRule("z", regex.NewEpsilon()).
		AddStart("r")
	e := New().
		AddRule("r", regex.MustParse("z")).
		AddRule("z", regex.MustParse("w")).
		AddRule("w", regex.MustParse("w")). // w needs infinite descent
		AddStart("r")
	if IntersectionNonEmpty(d, e) {
		t.Error("joint realizability must fail (z disagrees / w unbounded)")
	}
	if !IntersectionNonEmpty(a) {
		t.Error("single-DTD intersection = non-emptiness of a")
	}
}

// TestIntersectionNonEmptyLargeContentModel is the regression test for
// product-state keys that kept only 16 bits of a state number. The start
// rule (a d^65534 e) | (b c) has a Glushkov automaton in which the state
// of b is numbered 65536 above the state of a. Since e is unrealizable
// (e → e), only the b c branch gives a valid tree. With the two states
// sharing a key, the search dropped that branch whenever it reached it
// after the a branch, which depended on map order.
func TestIntersectionNonEmptyLargeContentModel(t *testing.T) {
	long := []*regex.Expr{regex.NewSymbol("a")}
	for i := 0; i < 65534; i++ {
		long = append(long, regex.NewSymbol("d"))
	}
	long = append(long, regex.NewSymbol("e"))
	d := New().
		AddRule("r", regex.NewUnion(regex.NewConcat(long...), regex.MustParse("b c"))).
		AddRule("e", regex.NewSymbol("e")).
		AddStart("r")
	start := time.Now()
	for i := 0; i < 10; i++ {
		if !IntersectionNonEmpty(d) {
			t.Fatalf("call %d: IntersectionNonEmpty = false, want true (r(b, c) is valid)", i)
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("10 calls took %v, want < 5s", el)
	}
}
