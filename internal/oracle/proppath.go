package oracle

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/oracle/ref"
	"repro/internal/propertypath"
	"repro/internal/rdf"
	"repro/internal/regex"
	"repro/internal/sparql"
)

// propertyPathEval checks the inverse law of ^ (inverseLawViolation),
// cross-checks the Glushkov-product evaluator of propertypath.Eval
// against an independent Brzozowski derivative-product BFS, checks the
// semantics hierarchy (simple-path answers ⊆ trail answers ⊆ regular
// answers), and, for paths without negated property sets, compares the
// simple-path and trail evaluators against exhaustive path enumeration
// over the graph.
type propertyPathEval struct{}

func (propertyPathEval) Name() string { return "propertypath-eval" }

func (propertyPathEval) Description() string {
	return "inverse law of ^; propertypath.Eval vs derivative-product BFS; EvalSimplePaths/EvalTrails vs exhaustive path enumeration"
}

var (
	ppPreds = []string{":p", ":q"}
	ppNodes = []string{"n0", "n1", "n2", "n3", "n4"}
)

// randomPPGraph draws a small graph over ppNodes and ppPreds.
func randomPPGraph(r *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	// <= 6 triples keeps exhaustive trail enumeration cheap
	m := 3 + r.Intn(4)
	for i := 0; i < m; i++ {
		g.Add(ppNodes[r.Intn(len(ppNodes))], ppPreds[r.Intn(len(ppPreds))], ppNodes[r.Intn(len(ppNodes))])
	}
	return g
}

// randomPropertyPath draws the SPARQL text of a path of bounded depth.
// ^ applies to atoms, to negated sets and to compound paths alike.
// Negated property sets are included only when allowNeg is set (the
// exhaustive path enumerators only handle plain forward/inverse atoms).
func randomPropertyPath(r *rand.Rand, depth int, allowNeg bool) string {
	pred := func() string { return ppPreds[r.Intn(len(ppPreds))] }
	var out string
	if depth <= 0 || r.Float64() < 0.4 {
		if allowNeg && r.Float64() < 0.15 {
			var members []string
			if r.Intn(2) == 0 {
				members = append(members, pred())
			}
			if r.Intn(2) == 0 {
				members = append(members, "^"+pred())
			}
			if len(members) == 0 {
				members = append(members, pred())
			}
			out = "!(" + strings.Join(members, "|") + ")"
		} else {
			out = pred()
		}
	} else {
		sub := func() string { return randomPropertyPath(r, depth-1, allowNeg) }
		switch r.Intn(5) {
		case 0:
			out = "(" + sub() + "/" + sub() + ")"
		case 1:
			out = "(" + sub() + "|" + sub() + ")"
		case 2:
			out = "(" + sub() + ")*"
		case 3:
			out = "(" + sub() + ")+"
		default:
			out = "(" + sub() + ")?"
		}
	}
	if r.Float64() < 0.25 {
		out = "^" + out
	}
	return out
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
func derivativeEval(g *rdf.Graph, e *regex.Expr, start string, maxStates int) ([]string, bool) {
	re := e.Simplify()
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

// inverseLawViolation checks that ^(t), for t the rendering of e, answers
// the converse of e: y ∈ Eval(^(t), x) ⇔ x ∈ Eval(e, y) for all nodes x,
// y of randomPPGraph. It returns "" when the law holds.
func inverseLawViolation(g *rdf.Graph, e *regex.Expr) string {
	text := "^(" + sparql.PathString(e) + ")"
	inv, err := sparql.ParsePath(text)
	if err != nil {
		return fmt.Sprintf("%s does not parse: %v", text, err)
	}
	for _, x := range ppNodes {
		back := propertypath.Eval(g, inv, x)
		for _, y := range ppNodes {
			fwd := propertypath.Eval(g, e, y)
			if slices.Contains(back, y) != slices.Contains(fwd, x) {
				return fmt.Sprintf("Eval(%s, %s)=%v but Eval(%s, %s)=%v",
					text, x, back, sparql.PathString(e), y, fwd)
			}
		}
	}
	return ""
}

func (o propertyPathEval) Trial(r *rand.Rand) *Divergence {
	allowNeg := r.Float64() < 0.4
	g := randomPPGraph(r)
	p := sparql.MustParsePath(randomPropertyPath(r, 3, allowNeg))
	start := fmt.Sprintf("n%d", r.Intn(5))

	if msg := inverseLawViolation(g, p); msg != "" {
		g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *regex.Expr) bool {
			return inverseLawViolation(gg, pp) != ""
		})
		return &Divergence{
			Input:  ppInput(g2, p2, start),
			Detail: "inverse law violated: " + inverseLawViolation(g2, p2),
		}
	}

	reg := propertypath.Eval(g, p, start)
	if naive, ok := derivativeEval(g, p, start, 20000); ok && !sameStrings(reg, naive) {
		g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *regex.Expr) bool {
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
		g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *regex.Expr) bool {
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
		if brute := enumEval(g, p, start, false); !sameStrings(simple, brute) {
			g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *regex.Expr) bool {
				return !sameStrings(propertypath.EvalSimplePaths(gg, pp, start), enumEval(gg, pp, start, false))
			})
			return &Divergence{
				Input: ppInput(g2, p2, start),
				Detail: fmt.Sprintf("EvalSimplePaths=%v but exhaustive simple-path enumeration=%v",
					propertypath.EvalSimplePaths(g2, p2, start), enumEval(g2, p2, start, false)),
			}
		}
		if brute := enumEval(g, p, start, true); !sameStrings(trails, brute) {
			g2, p2 := shrinkPPInstance(g, p, func(gg *rdf.Graph, pp *regex.Expr) bool {
				return !sameStrings(propertypath.EvalTrails(gg, pp, start), enumEval(gg, pp, start, true))
			})
			return &Divergence{
				Input: ppInput(g2, p2, start),
				Detail: fmt.Sprintf("EvalTrails=%v but exhaustive trail enumeration=%v",
					propertypath.EvalTrails(g2, p2, start), enumEval(g2, p2, start, true)),
			}
		}
	}
	return nil
}

func ppInput(g *rdf.Graph, e *regex.Expr, start string) string {
	var ts []string
	for _, t := range g.Triples() {
		ts = append(ts, fmt.Sprintf("(%s %s %s)", t.S, t.P, t.O))
	}
	sort.Strings(ts)
	return fmt.Sprintf("path=%s start=%s graph=%s", sparql.PathString(e), start, strings.Join(ts, " "))
}

// shrinkPPInstance shrinks the graph (dropping triples) and the path
// while the divergence predicate holds. A path candidate must stay a
// property path: shrinkExpr also offers ε, which SPARQL cannot write.
func shrinkPPInstance(g *rdf.Graph, e *regex.Expr,
	diverges func(*rdf.Graph, *regex.Expr) bool) (*rdf.Graph, *regex.Expr) {
	rebuild := func(ts []rdf.Triple) *rdf.Graph {
		out := rdf.NewGraph()
		for _, t := range ts {
			out.Add(t.S, t.P, t.O)
		}
		return out
	}
	triples := shrinkList(g.Triples(), func(ts []rdf.Triple) bool {
		return diverges(rebuild(ts), e)
	})
	g = rebuild(triples)
	e = shrinkExpr(e, func(c *regex.Expr) bool {
		_, err := sparql.ParsePath(sparql.PathString(c))
		return err == nil && diverges(g, c)
	})
	return g, e
}
