package propertypath

import (
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/rdf"
	"repro/internal/regex"
)

// Evaluation of property paths over RDF graphs under the three semantics
// discussed in Section 9.6: the W3C regular (existential) semantics, and
// the simple-path and trail semantics whose data complexity the classes
// C_tract and T_tract characterize.

// atomMatcher resolves the extended-alphabet symbols of a path against a
// graph: forward labels, inverse labels, and negated sets.
type atomMatcher struct {
	g *rdf.Graph
}

// hop is one traversal of a graph edge: the node reached and the triple
// traversed (trail semantics forbids repeating the triple).
type hop struct {
	to string
	t  rdf.Triple
}

// step returns the hops from node via the atom symbol.
func (m atomMatcher) step(node, sym string) []hop {
	var out []hop
	switch {
	case strings.HasPrefix(sym, "^"):
		p := sym[1:]
		for _, t := range m.g.InEdges(node) {
			if t.P == p {
				out = append(out, hop{t.S, t})
			}
		}
	case strings.HasPrefix(sym, "!("):
		forbidden, forbiddenInv := parseNegSymbol(sym)
		// W3C semantics: the forward part of a negated property set is
		// active only when it lists at least one forward IRI, and likewise
		// for the inverse part (e.g. !(^b) matches reverse edges only).
		if forbidden != nil {
			for _, t := range m.g.OutEdges(node) {
				if !forbidden[t.P] {
					out = append(out, hop{t.O, t})
				}
			}
		}
		if forbiddenInv != nil {
			for _, t := range m.g.InEdges(node) {
				if !forbiddenInv[t.P] {
					out = append(out, hop{t.S, t})
				}
			}
		}
	default:
		for _, t := range m.g.OutEdges(node) {
			if t.P == sym {
				out = append(out, hop{t.O, t})
			}
		}
	}
	return out
}

// parseNegSymbol decodes a negated property set's "!(p|^q|…)" symbol.
// A nil map means that direction is not traversable at all (it had no
// members in the set).
func parseNegSymbol(sym string) (forbidden map[string]bool, forbiddenInv map[string]bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(sym, "!("), ")")
	if body == "" {
		return nil, nil
	}
	for _, part := range strings.Split(body, "|") {
		if strings.HasPrefix(part, "^") {
			if forbiddenInv == nil {
				forbiddenInv = map[string]bool{}
			}
			forbiddenInv[part[1:]] = true
		} else {
			if forbidden == nil {
				forbidden = map[string]bool{}
			}
			forbidden[part] = true
		}
	}
	return forbidden, forbiddenInv
}

// Eval returns the nodes y such that (start, y) is in the answer of the
// property path under the W3C regular semantics (existence of any path),
// computed by BFS over the product of the graph with the path's Glushkov
// automaton — polynomial time, as for all RPQs under this semantics.
func Eval(g *rdf.Graph, e *regex.Expr, start string) []string {
	n := automata.NewMatcher(e)
	m := atomMatcher{g}
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
		for _, sym := range n.Alphabet() {
			succs := n.Step([]int32{cur.state}, sym)
			if len(succs) == 0 {
				continue
			}
			for _, h := range m.step(cur.node, sym) {
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
	m := atomMatcher{g}
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
		for _, sym := range n.Alphabet() {
			next := n.Step(states, sym)
			if len(next) == 0 {
				continue
			}
			for _, h := range m.step(node, sym) {
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
