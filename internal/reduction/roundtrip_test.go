package reduction

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/oracle/ref"
	"repro/internal/regex"
)

// TestReductionRoundTripTable pins the Appendix A round-trip on a table of
// formulas with hand-checked validity: φ is valid iff L(e1) ⊆ L(e2), for
// both the RE(a,a?) and the RE(a,a*) encodings.
func TestReductionRoundTripTable(t *testing.T) {
	cases := []struct {
		name  string
		f     *DNF
		valid bool
	}{
		{"single positive literal", &DNF{Vars: 1, Clauses: []Clause{{1}}}, false},
		{"excluded middle", &DNF{Vars: 1, Clauses: []Clause{{1}, {-1}}}, true},
		{"excluded middle with spectator var", &DNF{Vars: 2, Clauses: []Clause{{1}, {-1}}}, true},
		{"complementary conjunctions miss mixed rows", &DNF{Vars: 2, Clauses: []Clause{{1, 2}, {-1, -2}}}, false},
		{"case split on x1", &DNF{Vars: 2, Clauses: []Clause{{1}, {-1, 2}, {-1, -2}}}, true},
		{"contradictory clause contributes nothing", &DNF{Vars: 1, Clauses: []Clause{{1, -1}, {1}}}, false},
		{"full truth table by clauses", &DNF{Vars: 2, Clauses: []Clause{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}}, true},
		{"three-var case split", &DNF{Vars: 3, Clauses: []Clause{{1}, {-1, 2}, {-1, -2, 3}, {-1, -2, -3}}}, true},
		{"three-var near-miss", &DNF{Vars: 3, Clauses: []Clause{{1}, {-1, 2}, {-1, -2, 3}}}, false},
	}
	for _, c := range cases {
		if got := c.f.Valid(); got != c.valid {
			t.Errorf("%s: Valid()=%v, want %v for %s", c.name, got, c.valid, c.f)
			continue
		}
		o1, o2 := c.f.ToOptContainment()
		if got := automata.Contains(o1, o2); got != c.valid {
			t.Errorf("%s: RE(a,a?) containment=%v, want %v", c.name, got, c.valid)
		}
		s1, s2 := c.f.ToStarContainment()
		if got := automata.Contains(s1, s2); got != c.valid {
			t.Errorf("%s: RE(a,a*) containment=%v, want %v", c.name, got, c.valid)
		}
	}
}

// TestReductionWordLevel cross-checks the encodings at the word level with
// the membership implementations: for valid formulas every word sampled
// from e1 must be in L(e2); for invalid formulas some sampled word must
// eventually fall outside (the reduction's counterexample witness).
func TestReductionWordLevel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	valid := &DNF{Vars: 2, Clauses: []Clause{{1}, {-1, 2}, {-1, -2}}}
	invalid := &DNF{Vars: 2, Clauses: []Clause{{1, 2}, {-1, -2}}}
	encoders := []struct {
		name string
		enc  func(*DNF) (*regex.Expr, *regex.Expr)
	}{
		{"opt", (*DNF).ToOptContainment},
		{"star", (*DNF).ToStarContainment},
	}
	for _, e := range encoders {
		e1, e2 := e.enc(valid)
		for i := 0; i < 40; i++ {
			w, ok := regex.RandomWord(e1, r)
			if !ok {
				t.Fatalf("%s: L(e1) empty for valid formula", e.name)
			}
			if !ref.Matches(e2, w) || !ref.MatchesDerivative(e2, w) {
				t.Fatalf("%s: valid formula but sampled word %v of L(e1) not in L(e2)", e.name, w)
			}
		}
		e1, e2 = e.enc(invalid)
		found := false
		for i := 0; i < 200 && !found; i++ {
			w, ok := regex.RandomWord(e1, r)
			if !ok {
				break
			}
			if !ref.Matches(e2, w) {
				if ref.MatchesDerivative(e2, w) {
					t.Fatalf("%s: membership implementations disagree on witness %v", e.name, w)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no counterexample word sampled for an invalid formula in 200 draws", e.name)
		}
	}
}
