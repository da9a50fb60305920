package propertypath

import (
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/rdf"
)

// Evaluation of property paths over RDF graphs under the three semantics
// discussed in Section 9.6: the W3C regular (existential) semantics, and
// the simple-path and trail semantics whose data complexity the classes
// C_tract and T_tract characterize.

// atomMatcher resolves the extended-alphabet symbols produced by ToRegex
// against a graph: forward labels, inverse labels, and negated sets.
type atomMatcher struct {
	g *rdf.Graph
}

// step returns the nodes reachable from node via the atom symbol, together
// with the traversed graph edges (for trail semantics).
type edgeUse struct {
	t       rdf.Triple
	forward bool
}

func (m atomMatcher) step(node, sym string) []struct {
	to   string
	edge edgeUse
} {
	var out []struct {
		to   string
		edge edgeUse
	}
	add := func(to string, e edgeUse) {
		out = append(out, struct {
			to   string
			edge edgeUse
		}{to, e})
	}
	switch {
	case strings.HasPrefix(sym, "^"):
		p := sym[1:]
		for _, t := range m.g.InEdges(node) {
			if t.P == p {
				add(t.S, edgeUse{t, false})
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
					add(t.O, edgeUse{t, true})
				}
			}
		}
		if forbiddenInv != nil {
			for _, t := range m.g.InEdges(node) {
				if !forbiddenInv[t.P] {
					add(t.S, edgeUse{t, false})
				}
			}
		}
	default:
		for _, t := range m.g.OutEdges(node) {
			if t.P == sym {
				add(t.O, edgeUse{t, true})
			}
		}
	}
	return out
}

// parseNegSymbol decodes the "!(p|^q|…)" symbols emitted by ToRegex.
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
// computed by BFS over the product of the graph with the path's NFA —
// polynomial time, as for all RPQs under this semantics.
func Eval(g *rdf.Graph, p *Path, start string) []string {
	n := automata.Glushkov(ToRegex(p))
	m := atomMatcher{g}
	type pstate struct {
		node  string
		state int
	}
	seen := map[pstate]bool{}
	var queue []pstate
	results := map[string]bool{}
	push := func(ps pstate) {
		if !seen[ps] {
			seen[ps] = true
			queue = append(queue, ps)
			if n.Final[ps.state] {
				results[ps.node] = true
			}
		}
	}
	for _, q := range n.Initial {
		push(pstate{start, q})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for sym, succs := range n.Trans[cur.state] {
			for _, st := range m.step(cur.node, sym) {
				for _, q2 := range succs {
					push(pstate{st.to, q2})
				}
			}
		}
	}
	out := make([]string, 0, len(results))
	for x := range results {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// EvalSimplePaths returns the nodes reachable via a SIMPLE path (no
// repeated node) matching the path — the semantics whose data complexity
// the class C_tract characterizes. Worst-case exponential (the problem is
// NP-hard outside C_tract); intended for small graphs and experiments.
func EvalSimplePaths(g *rdf.Graph, p *Path, start string) []string {
	n := automata.Glushkov(ToRegex(p))
	m := atomMatcher{g}
	results := map[string]bool{}
	visited := map[string]bool{start: true}
	var dfs func(node string, states map[int]bool)
	dfs = func(node string, states map[int]bool) {
		for q := range states {
			if n.Final[q] {
				results[node] = true
			}
		}
		// group successor states by symbol
		for sym := range symbolsOf(n, states) {
			next := map[int]bool{}
			for q := range states {
				for _, p2 := range n.Trans[q][sym] {
					next[p2] = true
				}
			}
			if len(next) == 0 {
				continue
			}
			for _, st := range m.step(node, sym) {
				if visited[st.to] {
					continue
				}
				visited[st.to] = true
				dfs(st.to, next)
				delete(visited, st.to)
			}
		}
	}
	init := map[int]bool{}
	for _, q := range n.Initial {
		init[q] = true
	}
	dfs(start, init)
	out := make([]string, 0, len(results))
	for x := range results {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// EvalTrails returns the nodes reachable via a TRAIL (no repeated edge)
// matching the path — the semantics of the class T_tract.
func EvalTrails(g *rdf.Graph, p *Path, start string) []string {
	n := automata.Glushkov(ToRegex(p))
	m := atomMatcher{g}
	results := map[string]bool{}
	used := map[rdf.Triple]bool{}
	var dfs func(node string, states map[int]bool)
	dfs = func(node string, states map[int]bool) {
		for q := range states {
			if n.Final[q] {
				results[node] = true
			}
		}
		for sym := range symbolsOf(n, states) {
			next := map[int]bool{}
			for q := range states {
				for _, p2 := range n.Trans[q][sym] {
					next[p2] = true
				}
			}
			if len(next) == 0 {
				continue
			}
			for _, st := range m.step(node, sym) {
				if used[st.edge.t] {
					continue
				}
				used[st.edge.t] = true
				dfs(st.to, next)
				delete(used, st.edge.t)
			}
		}
	}
	init := map[int]bool{}
	for _, q := range n.Initial {
		init[q] = true
	}
	dfs(start, init)
	out := make([]string, 0, len(results))
	for x := range results {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

func symbolsOf(n *automata.NFA, states map[int]bool) map[string]bool {
	out := map[string]bool{}
	for q := range states {
		for sym := range n.Trans[q] {
			out[sym] = true
		}
	}
	return out
}
