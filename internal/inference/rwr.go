package inference

import (
	"context"
	"sort"

	"repro/internal/obs"
	"repro/internal/regex"
)

// InferSORE learns a single-occurrence regular expression from the sample:
// 2T-INF builds the single-occurrence automaton, and RWR rewriting reduces
// it to an expression. When the automaton is exactly SORE-definable the
// result defines the same language; otherwise the rewriting generalizes
// (first by collapsing strongly connected components into (a1+…+ak)+, and
// as a last resort by falling back to the CRX chain inference), so the
// invariant sample ⊆ L(result) always holds.
func InferSORE(s Sample) *regex.Expr {
	return InferSORECtx(context.Background(), s)
}

// InferSORECtx is InferSORE under a (possibly traced) context: the
// 2T-INF automaton construction and the RWR rewriting fixpoint get
// their own child spans, with the rewrite rounds, SCC collapses, and
// CRX fallback accounted — the phase breakdown a trace of a slow
// inference request should show.
func InferSORECtx(ctx context.Context, s Sample) *regex.Expr {
	ctx, span := obs.StartSpan(ctx, "inference.sore")
	defer span.Finish()
	if len(s) == 0 {
		return regex.NewEmpty()
	}
	_, soaSpan := obs.StartSpan(ctx, "inference.2tinf")
	soa := BuildSOA(s)
	soaSpan.Finish()
	_, rwrSpan := obs.StartSpan(ctx, "inference.rwr")
	ruleRounds := rwrSpan.Counter("rule_rounds")
	sccCollapses := rwrSpan.Counter("scc_collapses")
	g := newRewriteGraph(soa)
	for {
		if g.applyRules() {
			ruleRounds.Inc()
			continue
		}
		if g.collapseSCC() {
			sccCollapses.Inc()
			continue
		}
		break
	}
	e, ok := g.result()
	rwrSpan.Finish()
	if ok {
		if nullableSample(s) && !e.Nullable() {
			return regex.NewOpt(e)
		}
		return e
	}
	// Irreducible DAG remainder: fall back to the chain inference, which is
	// also single-occurrence.
	span.SetAttr("fallback", "crx")
	return InferCHARECtx(ctx, s)
}

func nullableSample(s Sample) bool {
	for _, w := range s {
		if len(w) == 0 {
			return true
		}
	}
	return false
}

// rewriteGraph is the working structure of RWR: a DAG-with-loops whose
// internal nodes carry expressions; node 0 is the source, node 1 the sink.
type rewriteGraph struct {
	exprs map[int]*regex.Expr // nil for source/sink
	succ  map[int]map[int]bool
	pred  map[int]map[int]bool
	next  int
	// epsilonEdge records whether source→sink existed (ε in the sample).
}

const (
	srcNode  = 0
	sinkNode = 1
)

func newRewriteGraph(soa *SOA) *rewriteGraph {
	g := &rewriteGraph{
		exprs: map[int]*regex.Expr{},
		succ:  map[int]map[int]bool{srcNode: {}, sinkNode: {}},
		pred:  map[int]map[int]bool{srcNode: {}, sinkNode: {}},
		next:  2,
	}
	id := map[string]int{Source: srcNode, Sink: sinkNode}
	for _, q := range soa.States() {
		if q == Source || q == Sink {
			continue
		}
		id[q] = g.next
		g.exprs[g.next] = regex.NewSymbol(q)
		g.succ[g.next] = map[int]bool{}
		g.pred[g.next] = map[int]bool{}
		g.next++
	}
	for q, m := range soa.Succ {
		for to := range m {
			g.addEdge(id[q], id[to])
		}
	}
	return g
}

func (g *rewriteGraph) addEdge(from, to int) {
	g.succ[from][to] = true
	g.pred[to][from] = true
}

func (g *rewriteGraph) removeEdge(from, to int) {
	delete(g.succ[from], to)
	delete(g.pred[to], from)
}

func (g *rewriteGraph) removeNode(n int) {
	for to := range g.succ[n] {
		delete(g.pred[to], n)
	}
	for from := range g.pred[n] {
		delete(g.succ[from], n)
	}
	delete(g.succ, n)
	delete(g.pred, n)
	delete(g.exprs, n)
}

func (g *rewriteGraph) internalNodes() []int {
	var out []int
	for n := range g.exprs {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// applyRules applies one round of the four RWR rules; it reports whether
// anything changed.
func (g *rewriteGraph) applyRules() bool {
	changed := false
	// Rule 1 (self-loop): r→r becomes r⁺.
	for _, n := range g.internalNodes() {
		if g.succ[n][n] {
			g.removeEdge(n, n)
			g.exprs[n] = plusOf(g.exprs[n])
			changed = true
		}
	}
	// Rule 2 (disjunction): nodes with identical predecessor and successor
	// sets merge into a union.
	nodes := g.internalNodes()
	for i := 0; i < len(nodes); i++ {
		a := nodes[i]
		if g.exprs[a] == nil {
			continue
		}
		group := []int{a}
		for j := i + 1; j < len(nodes); j++ {
			b := nodes[j]
			if g.exprs[b] == nil {
				continue
			}
			if sameSet(g.pred[a], g.pred[b]) && sameSet(g.succ[a], g.succ[b]) {
				group = append(group, b)
			}
		}
		if len(group) > 1 {
			subs := make([]*regex.Expr, len(group))
			for k, n := range group {
				subs[k] = g.exprs[n]
			}
			g.exprs[a] = regex.NewUnion(subs...)
			for _, n := range group[1:] {
				g.removeNode(n)
			}
			changed = true
		}
	}
	// Rule 3 (concatenation): succ(r) = {s}, pred(s) = {r} merges r·s.
	for _, r := range g.internalNodes() {
		if g.exprs[r] == nil {
			continue
		}
		if len(g.succ[r]) != 1 {
			continue
		}
		var s int
		for x := range g.succ[r] {
			s = x
		}
		if s == srcNode || s == sinkNode || s == r {
			continue
		}
		if len(g.pred[s]) != 1 || !g.pred[s][r] {
			continue
		}
		// merge s into r
		g.exprs[r] = regex.NewConcat(g.exprs[r], g.exprs[s])
		g.removeEdge(r, s)
		for to := range g.succ[s] {
			g.addEdge(r, to)
		}
		g.removeNode(s)
		changed = true
	}
	// Rule 4 (optionality): if every pred(r)×succ(r) bypass edge exists,
	// r becomes r? and the bypass edges are removed.
	for _, r := range g.internalNodes() {
		if g.exprs[r] == nil || g.exprs[r].Nullable() {
			continue
		}
		if len(g.pred[r]) == 0 || len(g.succ[r]) == 0 {
			continue
		}
		all := true
		for p := range g.pred[r] {
			for q := range g.succ[r] {
				if !g.succ[p][q] {
					all = false
				}
			}
		}
		if !all {
			continue
		}
		// Only beneficial if at least one bypass edge actually exists to be
		// absorbed; with a single pred/succ pair this is exactly one edge.
		removedAny := false
		for p := range g.pred[r] {
			for q := range g.succ[r] {
				g.removeEdge(p, q)
				removedAny = true
			}
		}
		if removedAny {
			g.exprs[r] = regex.NewOpt(g.exprs[r])
			changed = true
		}
	}
	return changed
}

// collapseSCC finds a non-trivial strongly connected component among the
// internal nodes and collapses it into a single (e1 + … + ek)⁺ node — the
// generalization step of RWR² that guarantees progress on automata that are
// not SORE-definable.
func (g *rewriteGraph) collapseSCC() bool {
	sccs := g.stronglyConnected()
	for _, comp := range sccs {
		if len(comp) < 2 {
			continue
		}
		sort.Ints(comp)
		subs := make([]*regex.Expr, len(comp))
		preds := map[int]bool{}
		succs := map[int]bool{}
		inComp := map[int]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		for k, n := range comp {
			subs[k] = g.exprs[n]
			for p := range g.pred[n] {
				if !inComp[p] {
					preds[p] = true
				}
			}
			for q := range g.succ[n] {
				if !inComp[q] {
					succs[q] = true
				}
			}
		}
		keep := comp[0]
		for _, n := range comp[1:] {
			g.removeNode(n)
		}
		// reset keep's edges
		for to := range g.succ[keep] {
			g.removeEdge(keep, to)
		}
		for from := range g.pred[keep] {
			g.removeEdge(from, keep)
		}
		g.exprs[keep] = plusOf(regex.NewUnion(subs...))
		for p := range preds {
			g.addEdge(p, keep)
		}
		for q := range succs {
			g.addEdge(keep, q)
		}
		return true
	}
	return false
}

// stronglyConnected returns the strongly connected components of the
// internal nodes, by Tarjan's algorithm over their dense indexing.
func (g *rewriteGraph) stronglyConnected() [][]int {
	nodes := g.internalNodes()
	pos := make(map[int]int, len(nodes))
	for i, v := range nodes {
		pos[v] = i
	}
	edge := make([][]bool, len(nodes))
	for i, v := range nodes {
		edge[i] = make([]bool, len(nodes))
		for w := range g.succ[v] {
			if j, ok := pos[w]; ok {
				edge[i][j] = true
			}
		}
	}
	sccs := tarjanSCC(len(nodes), edge)
	for _, comp := range sccs {
		for k, i := range comp {
			comp[k] = nodes[i]
		}
	}
	return sccs
}

// result extracts the final expression when the graph has been reduced to
// source → single node → sink (or source → sink only).
func (g *rewriteGraph) result() (*regex.Expr, bool) {
	nodes := g.internalNodes()
	switch len(nodes) {
	case 0:
		if g.succ[srcNode][sinkNode] {
			return regex.NewEpsilon(), true
		}
		return regex.NewEmpty(), true
	case 1:
		n := nodes[0]
		if sameSet(g.succ[srcNode], map[int]bool{n: true}) &&
			sameSet(g.succ[n], map[int]bool{sinkNode: true}) {
			return g.exprs[n], true
		}
		if g.succ[srcNode][n] && g.succ[srcNode][sinkNode] &&
			g.succ[n][sinkNode] && len(g.succ[n]) == 1 {
			return regex.NewOpt(g.exprs[n]), true
		}
	}
	return nil, false
}

func plusOf(e *regex.Expr) *regex.Expr {
	switch e.Kind {
	case regex.Plus, regex.Star:
		return e
	case regex.Opt:
		return regex.NewStar(e.Sub())
	}
	return regex.NewPlus(e)
}
