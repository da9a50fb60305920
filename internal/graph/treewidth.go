package graph

import "math/bits"

// Treewidth machinery. Deciding treewidth ≤ k is NP-complete (Arnborg,
// Corneil & Proskurowski, cited in Section 7.1.1), so — exactly like Maniu
// et al. — large graphs get lower/upper *bounds* from polynomial
// heuristics, and only small graphs (the canonical query graphs of
// Table 7) are decided exactly.

// UpperBoundMinDegree runs the min-degree elimination heuristic: repeatedly
// eliminate a minimum-degree vertex, turning its neighborhood into a
// clique; the maximum degree at elimination bounds the treewidth from
// above.
func UpperBoundMinDegree(g *Graph) int {
	return eliminationBound(g, func(h *Graph, alive []bool) int {
		best, bestDeg := -1, 1<<30
		for v := 0; v < h.n; v++ {
			if !alive[v] {
				continue
			}
			if d := h.Degree(v); d < bestDeg {
				best, bestDeg = v, d
			}
		}
		return best
	})
}

// UpperBoundMinFill runs the min-fill heuristic: eliminate the vertex whose
// elimination adds the fewest fill edges.
func UpperBoundMinFill(g *Graph) int {
	return eliminationBound(g, func(h *Graph, alive []bool) int {
		best, bestFill := -1, 1<<30
		for v := 0; v < h.n; v++ {
			if !alive[v] {
				continue
			}
			nbr := h.Neighbors(v)
			fill := 0
			for i := 0; i < len(nbr) && fill < bestFill; i++ {
				for j := i + 1; j < len(nbr); j++ {
					if !h.HasEdge(nbr[i], nbr[j]) {
						fill++
						if fill >= bestFill {
							break
						}
					}
				}
			}
			if fill < bestFill {
				best, bestFill = v, fill
			}
		}
		return best
	})
}

func eliminationBound(g *Graph, pick func(h *Graph, alive []bool) int) int {
	h := g.Clone()
	alive := make([]bool, h.n)
	for i := range alive {
		alive[i] = true
	}
	width := 0
	for remaining := h.n; remaining > 0; remaining-- {
		v := pick(h, alive)
		if d := h.Degree(v); d > width {
			width = d
		}
		nbr := h.Neighbors(v)
		for i := 0; i < len(nbr); i++ {
			for j := i + 1; j < len(nbr); j++ {
				h.AddEdge(nbr[i], nbr[j])
			}
		}
		for _, u := range nbr {
			delete(h.adj[u], v)
		}
		h.adj[v] = map[int]bool{}
		alive[v] = false
	}
	return width
}

// UpperBound returns the better of the two elimination heuristics.
func UpperBound(g *Graph) int {
	a := UpperBoundMinDegree(g)
	if b := UpperBoundMinFill(g); b < a {
		return b
	}
	return a
}

// LowerBoundDegeneracy returns the degeneracy (MMD: maximum over subgraphs
// of the minimum degree), a classical treewidth lower bound.
func LowerBoundDegeneracy(g *Graph) int {
	h := g.Clone()
	alive := make([]bool, h.n)
	for i := range alive {
		alive[i] = true
	}
	lb := 0
	for remaining := h.n; remaining > 0; remaining-- {
		v, deg := -1, 1<<30
		for u := 0; u < h.n; u++ {
			if alive[u] && h.Degree(u) < deg {
				v, deg = u, h.Degree(u)
			}
		}
		if deg > lb && deg < 1<<30 {
			lb = deg
		}
		for _, u := range h.Neighbors(v) {
			delete(h.adj[u], v)
		}
		h.adj[v] = map[int]bool{}
		alive[v] = false
	}
	return lb
}

// LowerBoundMMDPlus computes the MMD+ (least-c) lower bound: repeatedly
// CONTRACT a minimum-degree vertex into its least-degree neighbor (instead
// of deleting it); the maximum of the minimum degrees seen bounds the
// treewidth from below (contraction preserves minors).
func LowerBoundMMDPlus(g *Graph) int {
	h := g.Clone()
	alive := make([]bool, h.n)
	for i := range alive {
		alive[i] = true
	}
	lb := 0
	remaining := h.n
	for remaining > 1 {
		v, deg := -1, 1<<30
		for u := 0; u < h.n; u++ {
			if alive[u] && h.Degree(u) < deg {
				v, deg = u, h.Degree(u)
			}
		}
		if deg > lb && deg < 1<<30 {
			lb = deg
		}
		if deg == 0 {
			alive[v] = false
			remaining--
			continue
		}
		// least-degree neighbor; ties go to the smallest id, so the
		// bound does not depend on map iteration order
		w, wdeg := -1, 1<<30
		for u := range h.adj[v] {
			if d := h.Degree(u); d < wdeg || d == wdeg && u < w {
				w, wdeg = u, d
			}
		}
		// contract v into w
		for u := range h.adj[v] {
			if u != w {
				h.AddEdge(w, u)
			}
			delete(h.adj[u], v)
		}
		h.adj[v] = map[int]bool{}
		alive[v] = false
		remaining--
	}
	return lb
}

// LowerBound returns the better of the lower-bound heuristics.
func LowerBound(g *Graph) int {
	a := LowerBoundDegeneracy(g)
	if b := LowerBoundMMDPlus(g); b > a {
		return b
	}
	return a
}

// TreewidthAtMost decides exactly whether tw(G) ≤ k for graphs with at most
// 63 vertices per connected component, by memoized search over elimination
// orders. It returns (answer, true) or (false, false) when the graph is too
// large to decide exactly.
func TreewidthAtMost(g *Graph, k int) (bool, bool) {
	for _, comp := range g.Components() {
		if len(comp) > 63 {
			return false, false
		}
		sub := g.InducedSubgraph(comp)
		if !twAtMostComponent(sub, k) {
			return false, true
		}
	}
	return true, true
}

func twAtMostComponent(g *Graph, k int) bool {
	n := g.n
	if n <= k+1 {
		return true
	}
	// adjacency as bitmasks over the component's local indices
	adj := make([]uint64, n)
	for v := 0; v < n; v++ {
		for u := range g.adj[v] {
			adj[v] |= 1 << uint(u)
		}
	}
	full := uint64(1)<<uint(n) - 1
	memo := map[uint64]bool{}
	var solve func(remaining uint64, adjDyn []uint64) bool
	solve = func(remaining uint64, adjDyn []uint64) bool {
		if bits.OnesCount64(remaining) <= k+1 {
			return true
		}
		if res, ok := memo[remaining]; ok {
			return res
		}
		res := false
		for v := 0; v < n && !res; v++ {
			if remaining&(1<<uint(v)) == 0 {
				continue
			}
			nbrs := adjDyn[v] & remaining
			if bits.OnesCount64(nbrs) > k {
				continue
			}
			// eliminate v: clique the neighbors
			next := make([]uint64, n)
			copy(next, adjDyn)
			for u := 0; u < n; u++ {
				if nbrs&(1<<uint(u)) != 0 {
					next[u] |= nbrs &^ (1 << uint(u))
					next[u] &^= 1 << uint(v)
				}
			}
			if solve(remaining&^(1<<uint(v)), next) {
				res = true
			}
		}
		memo[remaining] = res
		return res
	}
	return solve(full, adj)
}

// Treewidth computes the exact treewidth for small graphs (≤ 63 vertices
// per component) by binary search over TreewidthAtMost; ok is false when
// the graph is too large.
func Treewidth(g *Graph) (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	lo, hi := 0, 0
	for _, comp := range g.Components() {
		if len(comp)-1 > hi {
			hi = len(comp) - 1
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, decided := TreewidthAtMost(g, mid)
		if !decided {
			return 0, false
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// Bounds returns [lower, upper] treewidth bounds using the heuristics —
// the Table 1 methodology for graphs where exact treewidth is infeasible.
func Bounds(g *Graph) (lower, upper int) {
	lower = LowerBound(g)
	upper = UpperBound(g)
	if lower > upper {
		lower = upper
	}
	return lower, upper
}
