package oracle

import (
	"repro/internal/regex"
	"repro/internal/tree"
)

// The shrinkers greedily replace a failing input by the first strictly
// smaller candidate that still diverges, iterating to a fixpoint. keep
// must be the divergence predicate ("the implementations still disagree
// on this input"); it is re-evaluated on every candidate, so a shrunk
// reproducer is guaranteed to fail for the same oracle.

// posCount returns the number of symbol occurrences (Glushkov
// positions) of e. Determinization is exponential in it in the worst
// case, so every oracle bounds it before handing an expression to a
// subset construction.
func posCount(e *regex.Expr) int {
	n := 0
	e.Walk(func(x *regex.Expr) {
		if x.Kind == regex.Symbol {
			n++
		}
	})
	return n
}

// shrinkExpr minimizes a regular expression under keep.
func shrinkExpr(e *regex.Expr, keep func(*regex.Expr) bool) *regex.Expr {
	for {
		improved := false
		for _, c := range exprCandidates(e) {
			if c.Size() < e.Size() && keep(c) {
				e = c
				improved = true
				break
			}
		}
		if !improved {
			return e
		}
	}
}

// exprCandidates returns strictly smaller variants of e: each subtree
// hoisted into its parent's place, n-ary nodes with one child dropped,
// and the same moves applied one level down.
func exprCandidates(e *regex.Expr) []*regex.Expr {
	var out []*regex.Expr
	switch e.Kind {
	case regex.Star, regex.Plus, regex.Opt:
		out = append(out, e.Subs[0], regex.NewEpsilon())
	case regex.Concat, regex.Union:
		for i := range e.Subs {
			out = append(out, e.Subs[i])
		}
		for i := range e.Subs {
			rest := make([]*regex.Expr, 0, len(e.Subs)-1)
			rest = append(rest, e.Subs[:i]...)
			rest = append(rest, e.Subs[i+1:]...)
			if e.Kind == regex.Concat {
				out = append(out, regex.NewConcat(rest...))
			} else {
				out = append(out, regex.NewUnion(rest...))
			}
		}
	}
	// recurse: replace one child by one of its candidates
	for i, sub := range e.Subs {
		for _, c := range exprCandidates(sub) {
			subs := make([]*regex.Expr, len(e.Subs))
			copy(subs, e.Subs)
			subs[i] = c
			switch e.Kind {
			case regex.Concat:
				out = append(out, regex.NewConcat(subs...))
			case regex.Union:
				out = append(out, regex.NewUnion(subs...))
			case regex.Star:
				out = append(out, regex.NewStar(subs[0]))
			case regex.Plus:
				out = append(out, regex.NewPlus(subs[0]))
			case regex.Opt:
				out = append(out, regex.NewOpt(subs[0]))
			}
		}
	}
	return out
}

// shrinkWord minimizes a word (symbol slice) under keep by dropping
// chunks, then single symbols.
func shrinkWord(w []string, keep func([]string) bool) []string {
	for chunk := len(w) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(w); {
			cand := make([]string, 0, len(w)-chunk)
			cand = append(cand, w[:i]...)
			cand = append(cand, w[i+chunk:]...)
			if keep(cand) {
				w = cand
			} else {
				i++
			}
		}
	}
	return w
}

// shrinkList minimizes a list of items under keep (ddmin-lite: halves,
// then single removals).
func shrinkList[T any](items []T, keep func([]T) bool) []T {
	for chunk := len(items) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(items); {
			cand := make([]T, 0, len(items)-chunk)
			cand = append(cand, items[:i]...)
			cand = append(cand, items[i+chunk:]...)
			if keep(cand) {
				items = cand
			} else {
				i++
			}
		}
	}
	return items
}

// shrinkTree minimizes a labeled tree under keep by deleting subtrees
// bottom-up, then hoisting children into their parent's place.
func shrinkTree(t *tree.Node, keep func(*tree.Node) bool) *tree.Node {
	for {
		improved := false
		for _, c := range treeCandidates(t) {
			if c.Size() < t.Size() && keep(c) {
				t = c
				improved = true
				break
			}
		}
		if !improved {
			return t
		}
	}
}

func treeCandidates(t *tree.Node) []*tree.Node {
	var out []*tree.Node
	for i := range t.Children {
		cand := &tree.Node{Label: t.Label}
		cand.Children = append(cand.Children, t.Children[:i]...)
		cand.Children = append(cand.Children, t.Children[i+1:]...)
		out = append(out, cand)
	}
	for i, ch := range t.Children {
		for _, c := range treeCandidates(ch) {
			cand := &tree.Node{Label: t.Label}
			cand.Children = append(cand.Children, t.Children...)
			cand.Children[i] = c
			out = append(out, cand)
		}
	}
	return out
}
