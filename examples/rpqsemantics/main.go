// RPQ semantics (Section 9.6): the same property path evaluated under the
// W3C regular semantics, simple-path semantics, and trail semantics — and
// the tractability classifiers that predict which of them stay polynomial.
package main

import (
	"fmt"

	"repro/internal/propertypath"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func main() {
	// A ring with a chord: 1 → 2 → 3 → 4 → 1 and 2 → 5.
	g := rdf.NewGraph()
	g.Add("n1", "a", "n2")
	g.Add("n2", "a", "n3")
	g.Add("n3", "a", "n4")
	g.Add("n4", "a", "n1")
	g.Add("n2", "a", "n5")

	paths := []string{"a*", "(a/a)*", "a/a/a/a/a"}
	for _, s := range paths {
		p := sparql.MustParsePath(s)
		ctract, ttract := propertypath.Tractability(p)
		fmt.Printf("path %-10s  type %-6s  Table8 row %-10q  STE %-5v  C_tract %-5v  T_tract %v\n",
			s, propertypath.TypeString(p), string(propertypath.Classify(p)),
			propertypath.IsSimpleTransitive(p), ctract, ttract)
		fmt.Printf("  regular:      %v\n", propertypath.Eval(g, p, "n1"))
		fmt.Printf("  simple paths: %v\n", propertypath.EvalSimplePaths(g, p, "n1"))
		fmt.Printf("  trails:       %v\n\n", propertypath.EvalTrails(g, p, "n1"))
	}

	fmt.Println("a/a/a/a/a reaches n2 under the regular semantics by going around")
	fmt.Println("the ring (revisiting n1), but no SIMPLE path and no TRAIL of length")
	fmt.Println("five exists — the semantics genuinely differ. (a/a)* is the")
	fmt.Println("canonical language outside C_tract: finding even-length simple")
	fmt.Println("paths is NP-hard, and the classifier flags it.")

	// downward-closed ⇒ trail-tractable
	dc := sparql.MustParsePath("a*/a*")
	fmt.Printf("\na*/a* downward-closed: %v (⇒ trail-tractable)\n", propertypath.IsDownwardClosed(dc))
}
