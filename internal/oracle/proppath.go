package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/oracle/ref"
	"repro/internal/propertypath"
	"repro/internal/rdf"
	"repro/internal/regex"
)

// propertyPathEval cross-checks the Glushkov-product evaluator of
// propertypath.Eval against an independent Brzozowski derivative-product
// BFS, checks the semantics hierarchy (simple-path answers ⊆ trail
// answers ⊆ regular answers), and, for paths without negated property
// sets, compares the simple-path and trail evaluators against exhaustive
// path enumeration over the graph.
type propertyPathEval struct{}

func (propertyPathEval) Name() string { return "propertypath-eval" }

func (propertyPathEval) Description() string {
	return "propertypath.Eval vs derivative-product BFS; EvalSimplePaths/EvalTrails vs exhaustive path enumeration"
}

var ppPreds = []string{":p", ":q"}

// randomPPGraph draws a small graph over nodes n0..n4 and ppPreds.
func randomPPGraph(r *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	nodes := []string{"n0", "n1", "n2", "n3", "n4"}
	// <= 6 triples keeps exhaustive trail enumeration cheap
	m := 3 + r.Intn(4)
	for i := 0; i < m; i++ {
		g.Add(nodes[r.Intn(len(nodes))], ppPreds[r.Intn(len(ppPreds))], nodes[r.Intn(len(nodes))])
	}
	return g
}

// randomPropertyPath draws a path AST of bounded depth; negated property
// sets are included only when allowNeg is set (the exhaustive path
// enumerators only handle plain forward/inverse atoms).
func randomPropertyPath(r *rand.Rand, depth int, allowNeg bool) *propertypath.Path {
	if depth <= 0 || r.Float64() < 0.4 {
		pred := ppPreds[r.Intn(len(ppPreds))]
		switch x := r.Float64(); {
		case allowNeg && x < 0.15:
			np := &propertypath.Path{Kind: propertypath.NegSet}
			if r.Intn(2) == 0 {
				np.Neg = []string{pred}
			}
			if r.Intn(2) == 0 {
				np.NegInv = []string{ppPreds[r.Intn(len(ppPreds))]}
			}
			if len(np.Neg) == 0 && len(np.NegInv) == 0 {
				np.Neg = []string{pred}
			}
			return np
		case x < 0.5:
			return &propertypath.Path{Kind: propertypath.Inverse,
				Subs: []*propertypath.Path{{Kind: propertypath.IRI, IRI: pred}}}
		default:
			return &propertypath.Path{Kind: propertypath.IRI, IRI: pred}
		}
	}
	switch r.Intn(5) {
	case 0:
		return &propertypath.Path{Kind: propertypath.Seq, Subs: []*propertypath.Path{
			randomPropertyPath(r, depth-1, allowNeg), randomPropertyPath(r, depth-1, allowNeg)}}
	case 1:
		return &propertypath.Path{Kind: propertypath.Alt, Subs: []*propertypath.Path{
			randomPropertyPath(r, depth-1, allowNeg), randomPropertyPath(r, depth-1, allowNeg)}}
	case 2:
		return &propertypath.Path{Kind: propertypath.Star,
			Subs: []*propertypath.Path{randomPropertyPath(r, depth-1, allowNeg)}}
	case 3:
		return &propertypath.Path{Kind: propertypath.Plus,
			Subs: []*propertypath.Path{randomPropertyPath(r, depth-1, allowNeg)}}
	default:
		return &propertypath.Path{Kind: propertypath.Opt,
			Subs: []*propertypath.Path{randomPropertyPath(r, depth-1, allowNeg)}}
	}
}

// stepAtom is the oracle's own reading of the extended-alphabet atoms —
// deliberately written against rdf.Graph from scratch rather than reusing
// propertypath's atomMatcher.
func stepAtom(g *rdf.Graph, node, sym string) []string {
	var out []string
	switch {
	case strings.HasPrefix(sym, "^"):
		for _, t := range g.InEdges(node) {
			if t.P == sym[1:] {
				out = append(out, t.S)
			}
		}
	case strings.HasPrefix(sym, "!("):
		body := strings.TrimSuffix(strings.TrimPrefix(sym, "!("), ")")
		fwd := map[string]bool{}
		inv := map[string]bool{}
		if body != "" {
			for _, part := range strings.Split(body, "|") {
				if strings.HasPrefix(part, "^") {
					inv[part[1:]] = true
				} else {
					fwd[part] = true
				}
			}
		}
		// a direction is traversable only when the set names at least one
		// predicate in that direction (W3C negated property sets)
		if len(fwd) > 0 {
			for _, t := range g.OutEdges(node) {
				if !fwd[t.P] {
					out = append(out, t.O)
				}
			}
		}
		if len(inv) > 0 {
			for _, t := range g.InEdges(node) {
				if !inv[t.P] {
					out = append(out, t.S)
				}
			}
		}
	default:
		for _, t := range g.OutEdges(node) {
			if t.P == sym {
				out = append(out, t.O)
			}
		}
	}
	return out
}

// derivativeEval evaluates the path under regular semantics by BFS over
// (node, Brzozowski derivative) pairs. Returns ok=false when the
// derivative state space exceeds maxStates (the trial is then skipped).
func derivativeEval(g *rdf.Graph, p *propertypath.Path, start string, maxStates int) ([]string, bool) {
	re := propertypath.ToRegex(p).Simplify()
	alphabet := re.Alphabet()
	type state struct{ node, expr string }
	exprs := map[string]*regex.Expr{}
	intern := func(e *regex.Expr) string {
		k := e.String()
		if _, ok := exprs[k]; !ok {
			exprs[k] = e
		}
		return k
	}
	results := map[string]bool{}
	seen := map[state]bool{}
	var queue []state
	push := func(node string, e *regex.Expr) {
		s := state{node, intern(e)}
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
			if e.Nullable() {
				results[node] = true
			}
		}
	}
	push(start, re)
	for len(queue) > 0 {
		if len(seen) > maxStates {
			return nil, false
		}
		cur := queue[0]
		queue = queue[1:]
		e := exprs[cur.expr]
		for _, sym := range alphabet {
			d := ref.Derivative(e, sym).Simplify()
			if d.IsEmptyLanguage() {
				continue
			}
			for _, to := range stepAtom(g, cur.node, sym) {
				push(to, d)
			}
		}
	}
	out := make([]string, 0, len(results))
	for n := range results {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, true
}

// enumEval exhaustively enumerates graph walks from start — node-simple
// walks when trail is false, edge-distinct walks when trail is true
// (edges are identified by their triple, matching EvalTrails) — and
// collects the endpoints whose label word is in L(re). Only valid for
// paths whose atoms are plain forward/inverse IRIs.
func enumEval(g *rdf.Graph, re *regex.Expr, start string, trail bool) []string {
	results := map[string]bool{}
	visitedNodes := map[string]bool{start: true}
	usedEdges := map[rdf.Triple]bool{}
	var word []string
	var walk func(node string)
	walk = func(node string) {
		if ref.Matches(re, word) {
			results[node] = true
		}
		type move struct {
			to  string
			sym string
			t   rdf.Triple
		}
		var moves []move
		for _, t := range g.OutEdges(node) {
			moves = append(moves, move{t.O, t.P, t})
		}
		for _, t := range g.InEdges(node) {
			moves = append(moves, move{t.S, "^" + t.P, t})
		}
		for _, mv := range moves {
			if trail {
				if usedEdges[mv.t] {
					continue
				}
				usedEdges[mv.t] = true
			} else {
				if visitedNodes[mv.to] {
					continue
				}
				visitedNodes[mv.to] = true
			}
			word = append(word, mv.sym)
			walk(mv.to)
			word = word[:len(word)-1]
			if trail {
				delete(usedEdges, mv.t)
			} else {
				delete(visitedNodes, mv.to)
			}
		}
	}
	walk(start)
	out := make([]string, 0, len(results))
	for n := range results {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func subset(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func (o propertyPathEval) Trial(r *rand.Rand) *Divergence {
	allowNeg := r.Float64() < 0.4
	g := randomPPGraph(r)
	p := randomPropertyPath(r, 3, allowNeg)
	start := fmt.Sprintf("n%d", r.Intn(5))

	reg := propertypath.Eval(g, p, start)
	if naive, ok := derivativeEval(g, p, start, 20000); ok && !sameStrings(reg, naive) {
		g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *propertypath.Path) bool {
			n, ok2 := derivativeEval(gg, pp, start, 20000)
			return ok2 && !sameStrings(propertypath.Eval(gg, pp, start), n)
		})
		n2, _ := derivativeEval(g2, p2, start, 20000)
		return &Divergence{
			Input:  ppInput(g2, p2, start),
			Detail: fmt.Sprintf("Eval(Glushkov product)=%v but derivative-product BFS=%v", propertypath.Eval(g2, p2, start), n2),
		}
	}

	simple := propertypath.EvalSimplePaths(g, p, start)
	trails := propertypath.EvalTrails(g, p, start)
	if !subset(simple, trails) || !subset(trails, reg) {
		g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *propertypath.Path) bool {
			s := propertypath.EvalSimplePaths(gg, pp, start)
			t := propertypath.EvalTrails(gg, pp, start)
			return !subset(s, t) || !subset(t, propertypath.Eval(gg, pp, start))
		})
		return &Divergence{
			Input: ppInput(g2, p2, start),
			Detail: fmt.Sprintf("semantics hierarchy violated: simple=%v trails=%v regular=%v",
				propertypath.EvalSimplePaths(g2, p2, start), propertypath.EvalTrails(g2, p2, start), propertypath.Eval(g2, p2, start)),
		}
	}

	if !allowNeg && g.Len() <= 8 {
		re := propertypath.ToRegex(p)
		if brute := enumEval(g, re, start, false); !sameStrings(simple, brute) {
			g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *propertypath.Path) bool {
				return !sameStrings(propertypath.EvalSimplePaths(gg, pp, start),
					enumEval(gg, propertypath.ToRegex(pp), start, false))
			})
			return &Divergence{
				Input: ppInput(g2, p2, start),
				Detail: fmt.Sprintf("EvalSimplePaths=%v but exhaustive simple-path enumeration=%v",
					propertypath.EvalSimplePaths(g2, p2, start), enumEval(g2, propertypath.ToRegex(p2), start, false)),
			}
		}
		if brute := enumEval(g, re, start, true); !sameStrings(trails, brute) {
			g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *propertypath.Path) bool {
				return !sameStrings(propertypath.EvalTrails(gg, pp, start),
					enumEval(gg, propertypath.ToRegex(pp), start, true))
			})
			return &Divergence{
				Input: ppInput(g2, p2, start),
				Detail: fmt.Sprintf("EvalTrails=%v but exhaustive trail enumeration=%v",
					propertypath.EvalTrails(g2, p2, start), enumEval(g2, propertypath.ToRegex(p2), start, true)),
			}
		}
	}
	return nil
}

func ppInput(g *rdf.Graph, p *propertypath.Path, start string) string {
	var ts []string
	for _, t := range g.Triples() {
		ts = append(ts, fmt.Sprintf("(%s %s %s)", t.S, t.P, t.O))
	}
	sort.Strings(ts)
	return fmt.Sprintf("path=%s start=%s graph=%s", p, start, strings.Join(ts, " "))
}

// shrinkPPInstance shrinks the graph (dropping triples) and the path
// while the divergence predicate holds.
func shrinkPPInstance(g *rdf.Graph, p *propertypath.Path,
	diverges func(*rdf.Graph, *propertypath.Path) bool) (*rdf.Graph, *propertypath.Path) {
	rebuild := func(ts []rdf.Triple) *rdf.Graph {
		out := rdf.NewGraph()
		for _, t := range ts {
			out.Add(t.S, t.P, t.O)
		}
		return out
	}
	triples := shrinkList(g.Triples(), func(ts []rdf.Triple) bool {
		return diverges(rebuild(ts), p)
	})
	g = rebuild(triples)
	p = shrinkPath(p, func(c *propertypath.Path) bool { return diverges(g, c) })
	return g, p
}
