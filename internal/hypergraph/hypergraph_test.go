package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"
)

func chainH(n int) *Hypergraph {
	h := New()
	for i := 0; i < n; i++ {
		h.AddEdge(fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
	}
	return h
}

func cycleH(n int) *Hypergraph {
	h := chainH(n - 1)
	h.AddEdge(fmt.Sprintf("x%d", n-1), "x0")
	return h
}

func triangleH() *Hypergraph {
	return New().AddEdge("x", "y").AddEdge("y", "z").AddEdge("z", "x")
}

func TestIsAcyclic(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		want bool
	}{
		{"empty", New(), true},
		{"single edge", New().AddEdge("x", "y", "z"), true},
		{"chain", chainH(5), true},
		{"star", New().AddEdge("c", "a").AddEdge("c", "b").AddEdge("c", "d"), true},
		{"triangle", triangleH(), false},
		{"triangle with cover", triangleH().AddEdge("x", "y", "z"), true},
		{"cycle4", cycleH(4), false},
		{"two triangles sharing edge", New().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "a").AddEdge("c", "d").AddEdge("d", "a"), false},
		{"tree of hyperedges", New().AddEdge("a", "b", "c").AddEdge("c", "d", "e").AddEdge("e", "f"), true},
		{"disconnected acyclic", New().AddEdge("a", "b").AddEdge("x", "y"), true},
	}
	for _, c := range cases {
		if got := c.h.IsAcyclic(); got != c.want {
			t.Errorf("%s: IsAcyclic = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFreeConnex(t *testing.T) {
	// The classical example: the path query R(x,y), S(y,z) is acyclic; with
	// free variables {x,z} it is NOT free-connex (the extension edge {x,z}
	// creates a cycle).
	h := New().AddEdge("x", "y").AddEdge("y", "z")
	if !h.IsFreeConnexAcyclic([]string{"x", "y"}) {
		t.Error("free {x,y} should be free-connex")
	}
	if !h.IsFreeConnexAcyclic([]string{"y"}) {
		t.Error("free {y} should be free-connex")
	}
	if h.IsFreeConnexAcyclic([]string{"x", "z"}) {
		t.Error("free {x,z} should NOT be free-connex")
	}
	if !h.IsFreeConnexAcyclic([]string{"x", "y", "z"}) {
		t.Error("all variables free should be free-connex")
	}
	if !h.IsFreeConnexAcyclic(nil) {
		t.Error("boolean query should be free-connex")
	}
	if triangleH().IsFreeConnexAcyclic([]string{"x"}) {
		t.Error("cyclic query cannot be free-connex")
	}
}

func TestHypertreeWidth(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		want int
	}{
		{"empty", New(), 0},
		{"single", New().AddEdge("x", "y"), 1},
		{"chain", chainH(6), 1},
		{"triangle", triangleH(), 2},
		{"cycle4", cycleH(4), 2},
		{"cycle6", cycleH(6), 2},
		{"covered triangle", triangleH().AddEdge("x", "y", "z"), 1},
	}
	for _, c := range cases {
		if !c.h.HypertreeWidthAtMost(c.want) || c.want > 0 && c.h.HypertreeWidthAtMost(c.want-1) {
			t.Errorf("%s: hypertree width is not %d", c.name, c.want)
		}
	}
}

func TestAcyclicIffWidthOne(t *testing.T) {
	// Property: htw ≤ 1 ⇔ α-acyclic, fuzzed on random hypergraphs.
	r := rand.New(rand.NewSource(5))
	vars := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 300; i++ {
		h := New()
		ne := 1 + r.Intn(5)
		for e := 0; e < ne; e++ {
			k := 1 + r.Intn(3)
			var vs []string
			for j := 0; j < k; j++ {
				vs = append(vs, vars[r.Intn(len(vars))])
			}
			h.AddEdge(vs...)
		}
		acyclic := h.IsAcyclic()
		w1 := h.HypertreeWidthAtMost(1)
		if acyclic != w1 {
			t.Fatalf("disagree on %v: acyclic=%v, htw≤1=%v", h, acyclic, w1)
		}
	}
}

func TestGridHypergraphWidth(t *testing.T) {
	// 3×3 grid as binary edges: treewidth 3, ghw 2 (bags of 2 edges cover
	// 4 vertices)… we just check monotonicity: ≤3 holds, ≤1 fails.
	h := New()
	id := func(x, y int) string { return fmt.Sprintf("v%d_%d", x, y) }
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if x+1 < 3 {
				h.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < 3 {
				h.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	if h.HypertreeWidthAtMost(1) {
		t.Error("grid should not have width 1")
	}
	if !h.HypertreeWidthAtMost(3) {
		t.Error("grid should have width ≤ 3")
	}
}

func TestWikidataExampleQueryHypergraph(t *testing.T) {
	// The "Locations of archaeological sites" query of Section 9: three
	// triple patterns sharing ?subj — a star, acyclic, free-connex for the
	// projection {?label, ?coord, ?subj}.
	h := New().
		AddEdge("?subj").           // ?subj wdt:P31/wdt:P279* wd:Q839954
		AddEdge("?subj", "?coord"). // ?subj wdt:P625 ?coord
		AddEdge("?subj", "?label")  // ?subj rdfs:label ?label
	if !h.IsAcyclic() {
		t.Error("star query should be acyclic")
	}
	if !h.IsFreeConnexAcyclic([]string{"?label", "?coord", "?subj"}) {
		t.Error("should be free-connex")
	}
	if !h.HypertreeWidthAtMost(1) {
		t.Error("star query should have width 1")
	}
}

// TestWidthIdentities checks, on 3,000 seeded random hypergraphs, the
// two identities Tables 6 and 7 rest on: α-acyclic ⇔ hypertree width
// ≤ 1, and free-connex acyclic ⇒ acyclic, for a random set of free
// vertices. Edges repeat and nest, as in the hypergraphs of real
// queries.
func TestWidthIdentities(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 3000; i++ {
		nv := 2 + r.Intn(len(vars)-1)
		h := New()
		for e := 1 + r.Intn(7); e > 0; e-- {
			var vs []string
			for k := 1 + r.Intn(4); k > 0; k-- {
				vs = append(vs, vars[r.Intn(nv)])
			}
			h.AddEdge(vs...)
		}
		var free []string
		for _, v := range vars[:nv] {
			if r.Intn(3) == 0 {
				free = append(free, v)
			}
		}
		acyclic := h.IsAcyclic()
		if w1 := h.HypertreeWidthAtMost(1); acyclic != w1 {
			t.Fatalf("%v: IsAcyclic = %v, HypertreeWidthAtMost(1) = %v", h, acyclic, w1)
		}
		if h.IsFreeConnexAcyclic(free) && !acyclic {
			t.Fatalf("%v: free-connex acyclic for %v but not acyclic", h, free)
		}
	}
}
