package reduction

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/chare"
)

// paperFormula is the example from Appendix A:
// (x1 ∧ ¬x2 ∧ x3) ∨ (¬x1 ∧ x3 ∧ ¬x4) ∨ (x2 ∧ ¬x3 ∧ x4), n = 4, m = 3.
func paperFormula() *DNF {
	return &DNF{
		Vars: 4,
		Clauses: []Clause{
			{1, -2, 3},
			{-1, 3, -4},
			{2, -3, 4},
		},
	}
}

func TestPaperFormulaNotValid(t *testing.T) {
	// The all-false assignment satisfies no clause.
	if paperFormula().Valid() {
		t.Fatal("paper formula should not be valid")
	}
}

func TestValidBruteForce(t *testing.T) {
	valid := &DNF{Vars: 1, Clauses: []Clause{{1}, {-1}}}
	if !valid.Valid() {
		t.Error("x1 ∨ ¬x1 should be valid")
	}
	invalid := &DNF{Vars: 2, Clauses: []Clause{{1, 2}, {-1, -2}}}
	if invalid.Valid() {
		t.Error("(x1∧x2) ∨ (¬x1∧¬x2) should not be valid")
	}
}

func TestReductionsStayInFragment(t *testing.T) {
	f := paperFormula()
	e1, e2 := f.ToOptContainment()
	c1, ok1 := chare.Parse(e1)
	c2, ok2 := chare.Parse(e2)
	if !ok1 || !ok2 {
		t.Fatal("RE(a,a?) instances are not CHAREs")
	}
	if !c1.InFragment(chare.TypeA, chare.TypeAQuestion) {
		t.Errorf("e1 fragment %s not within RE(a,a?)", c1.FragmentName())
	}
	if !c2.InFragment(chare.TypeA, chare.TypeAQuestion) {
		t.Errorf("e2 fragment %s not within RE(a,a?)", c2.FragmentName())
	}
	s1, s2 := f.ToStarContainment()
	d1, ok1 := chare.Parse(s1)
	d2, ok2 := chare.Parse(s2)
	if !ok1 || !ok2 {
		t.Fatal("RE(a,a*) instances are not CHAREs")
	}
	if !d1.InFragment(chare.TypeA, chare.TypeAStar) {
		t.Errorf("e1 fragment %s not within RE(a,a*)", d1.FragmentName())
	}
	if !d2.InFragment(chare.TypeA, chare.TypeAStar) {
		t.Errorf("e2 fragment %s not within RE(a,a*)", d2.FragmentName())
	}
}

// TestReductionStrings pins the exact instances both encodings build, so
// a change to the shared block skeleton cannot alter either reduction.
func TestReductionStrings(t *testing.T) {
	cases := []struct {
		name                     string
		f                        *DNF
		opt1, opt2, star1, star2 string
	}{
		{"all clauses inconsistent", &DNF{Vars: 1, Clauses: []Clause{{1, -1}}},
			"#", "$", "#", "$"},
		{"one variable", &DNF{Vars: 1, Clauses: []Clause{{1}}},
			"# a? a?", "# a a?", "# a* b* a*", "# a a* b* a*"},
		{"mixed polarities", &DNF{Vars: 2, Clauses: []Clause{{1, -2}, {-1}}},
			"# a $ a # a? a? $ a? a? # a $ a",
			"#? a? a? $? a? a? # a a? $ a? # a? $ a? a? #? a? a? $? a? a?",
			"# a $ a # a* b* a* $ a* b* a* # a $ a",
			"#* a* b* a* $* a* b* a* # a a* b* a* $ b* a* # b* a* $ a* b* a* #* a* b* a* $* a* b* a*"},
	}
	for _, c := range cases {
		o1, o2 := c.f.ToOptContainment()
		s1, s2 := c.f.ToStarContainment()
		for _, g := range []struct{ what, got, want string }{
			{"RE(a,a?) e1", o1.String(), c.opt1},
			{"RE(a,a?) e2", o2.String(), c.opt2},
			{"RE(a,a*) e1", s1.String(), c.star1},
			{"RE(a,a*) e2", s2.String(), c.star2},
		} {
			if g.got != g.want {
				t.Errorf("%s: %s = %q, want %q", c.name, g.what, g.got, g.want)
			}
		}
	}
}

func TestOptReductionCorrect(t *testing.T) {
	checkReduction(t, func(f *DNF) (interface{ String() string }, interface{ String() string }, bool) {
		e1, e2 := f.ToOptContainment()
		return e1, e2, automata.Contains(e1, e2)
	})
}

func TestStarReductionCorrect(t *testing.T) {
	checkReduction(t, func(f *DNF) (interface{ String() string }, interface{ String() string }, bool) {
		e1, e2 := f.ToStarContainment()
		return e1, e2, automata.Contains(e1, e2)
	})
}

func checkReduction(t *testing.T, run func(*DNF) (interface{ String() string }, interface{ String() string }, bool)) {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	formulas := []*DNF{
		paperFormula(),
		{Vars: 1, Clauses: []Clause{{1}, {-1}}},
		{Vars: 2, Clauses: []Clause{{1}, {-1}}},
		{Vars: 2, Clauses: []Clause{{1, 2}, {-1, -2}}},
		{Vars: 2, Clauses: []Clause{{1}, {-1, 2}, {-1, -2}}},
		{Vars: 3, Clauses: []Clause{{1}, {-1}}},
	}
	// plus random small formulas
	for i := 0; i < 12; i++ {
		n := 2 + r.Intn(2)
		m := 2 + r.Intn(2)
		f := &DNF{Vars: n}
		for j := 0; j < m; j++ {
			var cl Clause
			for v := 1; v <= n; v++ {
				switch r.Intn(3) {
				case 0:
					cl = append(cl, Literal(v))
				case 1:
					cl = append(cl, Literal(-v))
				}
			}
			if len(cl) == 0 {
				cl = append(cl, Literal(1))
			}
			f.Clauses = append(f.Clauses, cl)
		}
		formulas = append(formulas, f)
	}
	for _, f := range formulas {
		want := f.Valid()
		_, _, got := run(f)
		if got != want {
			t.Errorf("reduction disagrees for %s: containment %v, validity %v", f, got, want)
		}
	}
}
