package propertypath

import (
	"sort"

	"repro/internal/automata"
	"repro/internal/rdf"
	"repro/internal/regex"
	"repro/internal/sparql"
)

// Evaluation of property paths over RDF graphs under the three semantics
// discussed in Section 9.6: the W3C regular (existential) semantics, and
// the simple-path and trail semantics whose data complexity the classes
// C_tract and T_tract characterize.

// atom is a symbol of the path's alphabet, resolved once per
// evaluation into the IRIs it lists in each direction (0 forward, 1
// inverse). An IRI atom steps along the edges whose predicate it lists,
// a negated set along those whose predicate it does not. A direction
// without IRIs is not traversed at all: under the W3C semantics !(^b)
// matches reverse edges only.
type atom struct {
	iris    [2]map[string]bool
	negated bool
}

// resolve reads the alphabet's symbols, in order.
func resolve(alphabet []string) []atom {
	out := make([]atom, len(alphabet))
	for i, sym := range alphabet {
		s := sparql.ReadPathSymbol(sym)
		out[i].negated = s.Negated
		for iri, inverse, ok := s.Next(); ok; iri, inverse, ok = s.Next() {
			d := 0
			if inverse {
				d = 1
			}
			if out[i].iris[d] == nil {
				out[i].iris[d] = map[string]bool{}
			}
			out[i].iris[d][iri] = true
		}
	}
	return out
}

// hop is one traversal of a graph edge: the node reached and the triple
// traversed (trail semantics forbids repeating the triple).
type hop struct {
	to string
	t  rdf.Triple
}

// step returns the hops of g from node via a, forward ones first.
func step(g *rdf.Graph, node string, a atom) []hop {
	var out []hop
	for d, iris := range a.iris {
		if iris == nil {
			continue
		}
		edges := g.OutEdges(node)
		if d == 1 {
			edges = g.InEdges(node)
		}
		for _, t := range edges {
			if iris[t.P] != a.negated {
				to := t.O
				if d == 1 {
					to = t.S
				}
				out = append(out, hop{to, t})
			}
		}
	}
	return out
}

// Eval returns the nodes y such that (start, y) is in the answer of the
// property path under the W3C regular semantics (existence of any path),
// computed by BFS over the product of the graph with the path's Glushkov
// automaton — polynomial time, as for all RPQs under this semantics.
func Eval(g *rdf.Graph, e *regex.Expr, start string) []string {
	n := automata.NewMatcher(e)
	atoms := resolve(n.Alphabet())
	type pstate struct {
		node  string
		state int32
	}
	seen := map[pstate]bool{}
	var queue []pstate
	results := map[string]bool{}
	push := func(ps pstate) {
		if !seen[ps] {
			seen[ps] = true
			queue = append(queue, ps)
			if n.AnyFinal([]int32{ps.state}) {
				results[ps.node] = true
			}
		}
	}
	push(pstate{start, 0})
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i, sym := range n.Alphabet() {
			succs := n.Step([]int32{cur.state}, sym)
			if len(succs) == 0 {
				continue
			}
			for _, h := range step(g, cur.node, atoms[i]) {
				for _, q2 := range succs {
					push(pstate{h.to, q2})
				}
			}
		}
	}
	return sortedKeys(results)
}

// EvalSimplePaths returns the nodes reachable via a SIMPLE path (no
// repeated node) matching the path — the semantics whose data complexity
// the class C_tract characterizes. Worst-case exponential (the problem is
// NP-hard outside C_tract); intended for small graphs and experiments.
func EvalSimplePaths(g *rdf.Graph, e *regex.Expr, start string) []string {
	return evalNoRepeat(g, e, start, true)
}

// EvalTrails returns the nodes reachable via a TRAIL (no repeated edge)
// matching the path — the semantics of the class T_tract.
func EvalTrails(g *rdf.Graph, e *regex.Expr, start string) []string {
	return evalNoRepeat(g, e, start, false)
}

// evalNoRepeat enumerates by DFS the paths from start that match e,
// stepping the path's Glushkov state set along each path. With nodes set no
// node repeats (start counts as visited); otherwise no edge repeats.
func evalNoRepeat(g *rdf.Graph, e *regex.Expr, start string, nodes bool) []string {
	n := automata.NewMatcher(e)
	atoms := resolve(n.Alphabet())
	results := map[string]bool{}
	used := map[any]bool{}
	key := func(h hop) any { return h.t }
	if nodes {
		key = func(h hop) any { return h.to }
		used[start] = true
	}
	var dfs func(node string, states []int32)
	dfs = func(node string, states []int32) {
		if n.AnyFinal(states) {
			results[node] = true
		}
		for i, sym := range n.Alphabet() {
			next := n.Step(states, sym)
			if len(next) == 0 {
				continue
			}
			for _, h := range step(g, node, atoms[i]) {
				k := key(h)
				if used[k] {
					continue
				}
				used[k] = true
				dfs(h.to, next)
				delete(used, k)
			}
		}
	}
	dfs(start, n.Start())
	return sortedKeys(results)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}
