// Containment and intersection for chain regular expressions
// (Theorems 4.4 and 4.5), plus the Appendix A coNP-hardness reduction.
package main

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/chare"
	"repro/internal/determinism"
	"repro/internal/reduction"
	"repro/internal/regex"
)

func main() {
	// --- fragment-specific deciders --------------------------------------
	pairs := [][2]string{
		{"a a+", "a+"},                       // RE(a,a+): PTIME block normal form
		{"(a + b) c", "(a + b + d) (c + d)"}, // RE(a,(+a)): fixed length
		{"a* b*", "(a + b)*"},                // greedy, subsequence-closed right side
		{"(a + b)* a", "(a + b)* (a + b)"},   // general automata fallback
	}
	fmt.Println("Containment (Theorem 4.4):")
	for _, p := range pairs {
		c1, c2 := chare.MustParse(p[0]), chare.MustParse(p[1])
		ok, method := chare.Contains(c1, c2)
		fmt.Printf("  L(%-12s) ⊆ L(%-18s)?  %-5v  [decided by %s]\n", p[0], p[1], ok, method)
	}

	fmt.Println("\nIntersection non-emptiness (Theorem 4.5):")
	groups := [][]string{
		{"a a+", "a+ a", "a a a+"},
		{"(a + b) c", "(b + d) c"},
		{"a b", "b a"},
	}
	for _, g := range groups {
		var cs []*chare.CHARE
		for _, s := range g {
			cs = append(cs, chare.MustParse(s))
		}
		ok, method := chare.IntersectionNonEmpty(cs...)
		fmt.Printf("  ⋂ %-28v ≠ ∅?  %-5v  [decided by %s]\n", g, ok, method)
	}

	// the NP certificate of Theorem 4.5(c–g): compact run-length witnesses
	c := chare.MustParse("a+ b a*")
	w := chare.RLEWord{{Label: "a", Count: 1_000_000_000}, {Label: "b", Count: 1}}
	fmt.Printf("\nRLE witness a^10⁹ b ∈ L(a+ b a*)? %v (verified in polynomial time)\n",
		chare.MemberRLE(c, w))

	// --- Appendix A: validity → containment -----------------------------
	phi := &reduction.DNF{
		Vars: 4,
		Clauses: []reduction.Clause{
			{1, -2, 3}, {-1, 3, -4}, {2, -3, 4}, // the paper's example φ
		},
	}
	fmt.Printf("\nAppendix A example: φ = %s\n", phi)
	fmt.Println("  valid (brute force):", phi.Valid())
	e1, e2 := phi.ToOptContainment()
	fmt.Printf("  RE(a,a?) instance: |e1| = %d, |e2| = %d nodes\n", e1.Size(), e2.Size())
	fmt.Println("  L(e1) ⊆ L(e2):", automata.Contains(e1, e2))
	s1, s2 := phi.ToStarContainment()
	fmt.Printf("  RE(a,a*) instance: |e1| = %d, |e2| = %d nodes\n", s1.Size(), s2.Size())
	fmt.Println("  L(e1) ⊆ L(e2):", automata.Contains(s1, s2))

	tauto := &reduction.DNF{Vars: 2, Clauses: []reduction.Clause{{1}, {-1}}}
	t1, t2 := tauto.ToOptContainment()
	fmt.Printf("\ntautology x1 ∨ ¬x1: valid=%v, containment=%v\n",
		tauto.Valid(), automata.Contains(t1, t2))

	// --- descriptional complexity: determinization ----------------------
	e := regex.MustParse("(a + b)* a")
	fmt.Printf("\n%q is deterministic per BKW? %v\n", e, determinism.IsDeterministic(e))
}
