package inference

import (
	"repro/internal/automata"
	"repro/internal/regex"
)

// This file implements the learning-in-the-limit machinery of
// Definition 4.7: an algorithm A learns a class R from positive data if
// (1) S ⊆ L(A(S)) for every sample S, and (2) every e ∈ R has a
// characteristic sample Sₑ ⊆ L(e) such that A(S) ≡ e whenever
// Sₑ ⊆ S ⊆ L(e).
//
// Theorem 4.8 (Bex et al.): deterministic regular expressions — and hence
// DTDs — are NOT learnable from positive data. Theorem 4.9: deterministic
// k-OREs ARE learnable for each fixed k. The package tests exercise both
// directions empirically: CharacteristicSample below is a characteristic
// sample generator for SOREs (where InferSORE recovers the expression
// exactly), and TestGoldStyleNonLearnability shows a pair of deterministic
// expressions that no sample can separate.

// CharacteristicSample generates a sample for a SORE e such that
// InferSORE(sample) is language-equivalent to e whenever the expression is
// single-occurrence. The construction covers every state and every edge of
// the Glushkov automaton of e: one shortest word through each transition,
// plus a shortest accepted word, plus — for each loop — a word taking the
// loop twice (so that RWR discovers the iteration).
func CharacteristicSample(e *regex.Expr) Sample {
	n := automata.Glushkov(e)
	var sample Sample
	if w, ok := n.ShortestWitness(); ok {
		sample = append(sample, w)
	}
	// For every transition p --a--> q, produce a word: shortest path from
	// the initial state to p, then a, then shortest completion from q.
	toState := shortestPrefixes(n)
	fromState := shortestSuffixes(n)
	for p := 0; p < n.NumStates; p++ {
		if toState[p] == nil {
			continue
		}
		for a, qs := range n.Trans[p] {
			for _, q := range qs {
				if fromState[q] == nil {
					continue
				}
				w := append(append([]string{}, toState[p]...), a)
				w = append(w, fromState[q]...)
				sample = append(sample, w)
				// If q is reachable from itself (a loop), also pump once
				// more so counts exceed 1.
				if w2, ok := pumpOnce(n, q); ok {
					full := append(append([]string{}, toState[p]...), a)
					full = append(full, w2...)
					full = append(full, fromState[q]...)
					sample = append(sample, full)
				}
			}
		}
	}
	return dedup(sample)
}

func dedup(s Sample) Sample {
	seen := map[string]bool{}
	var out Sample
	for _, w := range s {
		k := ""
		for _, a := range w {
			k += a + "\x00"
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}

// shortestPrefixes returns, per state, a shortest word leading from the
// initial state to it (nil if unreachable).
func shortestPrefixes(n *automata.NFA) [][]string {
	l := make([][]string, n.NumStates)
	var queue []int
	for _, q := range n.Initial {
		l[q] = []string{}
		queue = append(queue, q)
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for a, ps := range n.Trans[q] {
			for _, p := range ps {
				if l[p] == nil {
					l[p] = append(append([]string{}, l[q]...), a)
					queue = append(queue, p)
				}
			}
		}
	}
	return l
}

// shortestSuffixes returns, per state, a shortest word from it to
// acceptance (nil if none).
func shortestSuffixes(n *automata.NFA) [][]string {
	// reverse BFS
	type redge struct {
		to    int
		label string
	}
	rev := make([][]redge, n.NumStates)
	for q := 0; q < n.NumStates; q++ {
		for a, ps := range n.Trans[q] {
			for _, p := range ps {
				rev[p] = append(rev[p], redge{q, a})
			}
		}
	}
	l := make([][]string, n.NumStates)
	var queue []int
	for q := range n.Final {
		l[q] = []string{}
		queue = append(queue, q)
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, re := range rev[q] {
			if l[re.to] == nil {
				l[re.to] = append([]string{re.label}, l[q]...)
				queue = append(queue, re.to)
			}
		}
	}
	return l
}

// pumpOnce returns a shortest non-empty word leading from q back to q, if
// one exists.
func pumpOnce(n *automata.NFA, q int) ([]string, bool) {
	type item struct {
		state int
		word  []string
	}
	seen := map[int]bool{}
	var queue []item
	for a, ps := range n.Trans[q] {
		for _, p := range ps {
			if p == q {
				return []string{a}, true
			}
			if !seen[p] {
				seen[p] = true
				queue = append(queue, item{p, []string{a}})
			}
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for a, ps := range n.Trans[it.state] {
			for _, p := range ps {
				if p == q {
					return append(append([]string{}, it.word...), a), true
				}
				if !seen[p] {
					seen[p] = true
					queue = append(queue, item{p, append(append([]string{}, it.word...), a)})
				}
			}
		}
	}
	return nil, false
}
