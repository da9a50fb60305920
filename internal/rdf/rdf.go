// Package rdf implements RDF datasets as defined in Section 7 of "Towards
// Theory for Real-World Data": sets of triples (s, p, o) with s ∈ I ∪ B,
// p ∈ I, o ∈ I ∪ B ∪ L, abstracted as edge-labeled directed graphs. The
// package provides an indexed triple store and the structural analyses of
// the practical studies in Section 7.1: degree power laws (Ding & Finin,
// Bachlechner & Strang, Fernandez et al.), predicate lists per subject,
// (s,p)→o and (p,o)→s multiplicities, and the predicate/subject and
// predicate/object overlap ratios.
package rdf

import (
	"sort"
)

// Triple is an RDF triple.
type Triple struct {
	S, P, O string
}

// Graph is an indexed set of triples. The zero value is unusable; use
// NewGraph.
type Graph struct {
	triples []Triple
	set     map[Triple]bool
	// indexes
	bySubject   map[string][]int
	byPredicate map[string][]int
	byObject    map[string][]int
	bySP        map[[2]string][]int
	byPO        map[[2]string][]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		set:         map[Triple]bool{},
		bySubject:   map[string][]int{},
		byPredicate: map[string][]int{},
		byObject:    map[string][]int{},
		bySP:        map[[2]string][]int{},
		byPO:        map[[2]string][]int{},
	}
}

// Add inserts a triple (sets are duplicate-free per the RDF abstraction).
// It reports whether the triple was new.
func (g *Graph) Add(s, p, o string) bool {
	t := Triple{s, p, o}
	if g.set[t] {
		return false
	}
	g.set[t] = true
	i := len(g.triples)
	g.triples = append(g.triples, t)
	g.bySubject[s] = append(g.bySubject[s], i)
	g.byPredicate[p] = append(g.byPredicate[p], i)
	g.byObject[o] = append(g.byObject[o], i)
	g.bySP[[2]string{s, p}] = append(g.bySP[[2]string{s, p}], i)
	g.byPO[[2]string{p, o}] = append(g.byPO[[2]string{p, o}], i)
	return true
}

// Len returns the number of triples.
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns all triples (shared slice; callers must not mutate).
func (g *Graph) Triples() []Triple { return g.triples }

// Has reports membership.
func (g *Graph) Has(s, p, o string) bool { return g.set[Triple{s, p, o}] }

// Subjects returns the set S_G.
func (g *Graph) Subjects() []string { return keysOf(g.bySubject) }

// Predicates returns the set P_G.
func (g *Graph) Predicates() []string { return keysOf(g.byPredicate) }

// Objects returns the set O_G.
func (g *Graph) Objects() []string { return keysOf(g.byObject) }

func keysOf(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Match returns all triples matching the pattern; empty strings are
// wildcards.
func (g *Graph) Match(s, p, o string) []Triple {
	var idx []int
	switch {
	case s != "" && p != "":
		idx = g.bySP[[2]string{s, p}]
	case p != "" && o != "":
		idx = g.byPO[[2]string{p, o}]
	case s != "":
		idx = g.bySubject[s]
	case o != "":
		idx = g.byObject[o]
	case p != "":
		idx = g.byPredicate[p]
	default:
		idx = nil
		out := make([]Triple, 0, len(g.triples))
		out = append(out, g.triples...)
		return out
	}
	var out []Triple
	for _, i := range idx {
		t := g.triples[i]
		if (s == "" || t.S == s) && (p == "" || t.P == p) && (o == "" || t.O == o) {
			out = append(out, t)
		}
	}
	return out
}

// OutEdges returns the triples with subject s.
func (g *Graph) OutEdges(s string) []Triple {
	var out []Triple
	for _, i := range g.bySubject[s] {
		out = append(out, g.triples[i])
	}
	return out
}

// InEdges returns the triples with object o.
func (g *Graph) InEdges(o string) []Triple {
	var out []Triple
	for _, i := range g.byObject[o] {
		out = append(out, g.triples[i])
	}
	return out
}
