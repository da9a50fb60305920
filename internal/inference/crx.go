package inference

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/regex"
)

// InferCHARE implements the CRX algorithm (Bex, Neven, Schwentick,
// Vansummeren): it learns an expression that is simultaneously a
// single-occurrence and a sequential (chain) regular expression — the
// fragment that covers over 90% of the expressions in real-world DTDs
// (Section 4.2.2/4.2.3). The paper notes the algorithm "performs well in
// practice, even in scenarios with little data available".
//
// Method: build the precedence graph of the sample's symbols (a → b iff a
// occurs before b in some word); its strongly connected components, in
// topological order, become the disjunction factors; occurrence counts per
// word determine each factor's modifier (1, ?, *, +).
func InferCHARE(s Sample) *regex.Expr {
	return InferCHARECtx(context.Background(), s)
}

// InferCHARECtx is InferCHARE under a (possibly traced) context,
// recording an "inference.crx" span with the precedence-graph size.
func InferCHARECtx(ctx context.Context, s Sample) *regex.Expr {
	_, span := obs.StartSpan(ctx, "inference.crx")
	defer span.Finish()
	if len(s) == 0 {
		return regex.NewEmpty()
	}
	alpha := s.Alphabet()
	span.Count("alphabet_size", int64(len(alpha)))
	if len(alpha) == 0 {
		return regex.NewEpsilon()
	}
	idx := map[string]int{}
	for i, a := range alpha {
		idx[a] = i
	}
	n := len(alpha)
	// precedence: edge[i][j] if symbol i occurs strictly before j in a word.
	edge := make([][]bool, n)
	for i := range edge {
		edge[i] = make([]bool, n)
	}
	for _, w := range s {
		seen := map[int]bool{}
		for _, a := range w {
			j := idx[a]
			for i := range seen {
				if i != j {
					edge[i][j] = true
				}
			}
			seen[j] = true
		}
	}
	comps := tarjanSCC(n, edge)
	span.Count("chain_factors", int64(len(comps)))
	// topological order of components: comps from Tarjan come in reverse
	// topological order; reverse them.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	// Per-component occurrence counts per word.
	compOf := make([]int, n)
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	minCount := make([]int, len(comps))
	maxCount := make([]int, len(comps))
	for i := range minCount {
		minCount[i] = 1 << 30
	}
	for _, w := range s {
		counts := make([]int, len(comps))
		for _, a := range w {
			counts[compOf[idx[a]]]++
		}
		for i, c := range counts {
			if c < minCount[i] {
				minCount[i] = c
			}
			if c > maxCount[i] {
				maxCount[i] = c
			}
		}
	}
	var factors []*regex.Expr
	for ci, comp := range comps {
		syms := make([]string, len(comp))
		for k, v := range comp {
			syms[k] = alpha[v]
		}
		sort.Strings(syms)
		subs := make([]*regex.Expr, len(syms))
		for k, a := range syms {
			subs[k] = regex.NewSymbol(a)
		}
		f := regex.NewUnion(subs...)
		switch {
		case minCount[ci] == 0 && maxCount[ci] <= 1:
			f = regex.NewOpt(f)
		case minCount[ci] == 0:
			f = regex.NewStar(f)
		case maxCount[ci] <= 1:
			// every word has exactly one occurrence; no modifier
		default:
			f = regex.NewPlus(f)
		}
		factors = append(factors, f)
	}
	e := regex.NewConcat(factors...)
	return e
}

func tarjanSCC(n int, edge [][]bool) [][]int {
	index := make([]int, n)
	low := make([]int, n)
	for i := range index {
		index[i] = -1
	}
	onStack := make([]bool, n)
	var stack []int
	var comps [][]int
	counter := 0
	var visit func(v int)
	visit = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for w := 0; w < n; w++ {
			if !edge[v][w] || w == v {
				continue
			}
			if index[w] == -1 {
				visit(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			visit(v)
		}
	}
	return comps
}

// InferKORE learns a k-occurrence regular expression for the given k using
// the occurrence-marking heuristic: the i-th occurrence of a symbol within
// a word (capped at k) is treated as a distinct marked symbol, a SORE is
// learned over the marked alphabet, and the marks are erased. The erasure
// is a homomorphism, so the sample stays inside the language
// (Definition 4.7(1)). For k = 1 this is exactly InferSORE.
func InferKORE(s Sample, k int) *regex.Expr {
	return InferKORECtx(context.Background(), s, k)
}

// InferKORECtx is InferKORE under a (possibly traced) context; the
// occurrence marking and unmarking happen inside an "inference.kore"
// span, with the SORE learning over the marked alphabet as its child.
func InferKORECtx(ctx context.Context, s Sample, k int) *regex.Expr {
	if k <= 1 {
		return InferSORECtx(ctx, s)
	}
	ctx, span := obs.StartSpan(ctx, "inference.kore")
	defer span.Finish()
	span.SetAttr("k", strconv.Itoa(k))
	marked := make(Sample, len(s))
	for i, w := range s {
		counts := map[string]int{}
		mw := make([]string, len(w))
		for j, a := range w {
			counts[a]++
			c := counts[a]
			if c > k {
				c = k
			}
			mw[j] = mark(a, c)
		}
		marked[i] = mw
	}
	e := InferSORECtx(ctx, marked)
	return unmark(e)
}

const markSep = "\x00#"

func mark(a string, i int) string { return fmt.Sprintf("%s%s%d", a, markSep, i) }

func unmark(e *regex.Expr) *regex.Expr {
	out := e.Clone()
	out.Walk(func(x *regex.Expr) {
		if x.Kind == regex.Symbol {
			if i := strings.Index(x.Sym, markSep); i >= 0 {
				x.Sym = x.Sym[:i]
			}
		}
	})
	return out
}

// InferBestKORECtx runs InferKORECtx for k = 1..maxK and returns the
// first deterministic candidate, preferring small k (iDREGEx learns
// "deterministic k-OREs for increasing values of k", Section 4.2.3). If no
// candidate is deterministic it returns the k = 1 result. The determinism
// check is the Glushkov criterion; see internal/determinism. Each
// candidate k gets its own child span, and the "inference.best_kore" span
// records how many candidates were tried and which k won.
func InferBestKORECtx(ctx context.Context, s Sample, maxK int, isDeterministic func(*regex.Expr) bool) (*regex.Expr, int) {
	ctx, span := obs.StartSpan(ctx, "inference.best_kore")
	defer span.Finish()
	tried := span.Counter("candidates_tried")
	var first *regex.Expr
	for k := 1; k <= maxK; k++ {
		tried.Inc()
		e := InferKORECtx(ctx, s, k)
		if first == nil {
			first = e
		}
		if isDeterministic(e) {
			span.SetAttr("chosen_k", strconv.Itoa(k))
			return e, k
		}
	}
	span.SetAttr("chosen_k", "1")
	return first, 1
}
