package inference

import (
	"slices"

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
// loop twice (so that RWR discovers the iteration). Ties between shortest
// words break by sorted label and then by state, so the sample is the
// same on every call.
func CharacteristicSample(e *regex.Expr) Sample {
	g := explore(automata.NewMatcher(e))
	var sample Sample
	// A shortest accepted word: the first final state reached.
	if q := slices.Index(g.final, true); q >= 0 {
		sample = append(sample, g.prefix[q])
	}
	// For every transition p --a--> q, produce a word: shortest path from
	// the initial state to p, then a, then shortest completion from q.
	fromState := g.shortestSuffixes()
	for p, edges := range g.edges {
		for _, ed := range edges {
			suffix := fromState[ed.to]
			if suffix == nil {
				continue
			}
			sample = append(sample, slices.Concat(g.prefix[p], []string{ed.label}, suffix))
			// If q is reachable from itself (a loop), also pump once
			// more so counts exceed 1.
			if loop, ok := g.pumpOnce(ed.to); ok {
				sample = append(sample, slices.Concat(g.prefix[p], []string{ed.label}, loop, suffix))
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

// glushkovGraph is the part of a Glushkov automaton reachable from its
// initial state, explored breadth first through the Matcher, labels in
// sorted order and successors in ascending order. States are numbered
// in the order they are first reached.
type glushkovGraph struct {
	edges  [][]edge   // by state: its transitions, by label, then target
	final  []bool     // by state
	prefix [][]string // by state: the first shortest word reaching it
}

// edge is a transition on label to state to.
type edge struct {
	label string
	to    int
}

// explore builds the glushkovGraph of m.
func explore(m *automata.Matcher) *glushkovGraph {
	g := &glushkovGraph{}
	ids := map[int32]int{}
	var states []int32 // by number
	reach := func(q int32, prefix []string) int {
		if i, ok := ids[q]; ok {
			return i
		}
		ids[q] = len(states)
		states = append(states, q)
		g.edges = append(g.edges, nil)
		g.final = append(g.final, m.AnyFinal([]int32{q}))
		g.prefix = append(g.prefix, prefix)
		return len(states) - 1
	}
	for _, q := range m.Start() {
		reach(q, []string{})
	}
	for p := 0; p < len(states); p++ {
		from := []int32{states[p]}
		for _, a := range m.Alphabet() {
			for _, q := range m.Step(from, a) {
				to := reach(q, append(slices.Clip(g.prefix[p]), a))
				g.edges[p] = append(g.edges[p], edge{a, to})
			}
		}
	}
	return g
}

// shortestSuffixes returns, per state, a shortest word from it to
// acceptance (nil if none), by a reverse breadth-first search from the
// final states in order.
func (g *glushkovGraph) shortestSuffixes() [][]string {
	rev := make([][]edge, len(g.edges)) // edge{a, p} in rev[q]: p --a--> q
	for p, edges := range g.edges {
		for _, ed := range edges {
			rev[ed.to] = append(rev[ed.to], edge{ed.label, p})
		}
	}
	suffix := make([][]string, len(g.edges))
	var queue []int
	for q, final := range g.final {
		if final {
			suffix[q] = []string{}
			queue = append(queue, q)
		}
	}
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		for _, ed := range rev[q] {
			if suffix[ed.to] == nil {
				suffix[ed.to] = slices.Concat([]string{ed.label}, suffix[q])
				queue = append(queue, ed.to)
			}
		}
	}
	return suffix
}

// pumpOnce returns a shortest non-empty word leading from q back to q, if
// one exists.
func (g *glushkovGraph) pumpOnce(q int) ([]string, bool) {
	words := make([][]string, len(g.edges)) // nil until reached
	queue := []int{q}
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, ed := range g.edges[p] {
			w := append(slices.Clip(words[p]), ed.label)
			if ed.to == q {
				return w, true
			}
			if words[ed.to] == nil {
				words[ed.to] = w
				queue = append(queue, ed.to)
			}
		}
	}
	return nil, false
}
