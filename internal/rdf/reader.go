package rdf

// GraphReader is the read surface of an RDF graph: everything the
// Section 7.1 analyses (ComputeStats), the property-path evaluators,
// and the SPARQL-algebra evaluator need. *Graph satisfies it with its
// in-memory indexes; store.StoredGraph satisfies it with SPO/POS/OSP
// range scans over committed segments, so every analysis runs
// unchanged against either backend.
//
// Contract, matching *Graph's documented behavior:
//
//   - Triples returns each triple exactly once (RDF set semantics).
//     Iteration order is unspecified — *Graph yields insertion order,
//     a store-backed reader yields key order — so analyses must be
//     order-independent (ComputeStats aggregates and sorts; the
//     evaluators return sorted node sets).
//   - Subjects, Predicates, Objects are sorted and duplicate-free.
//   - Match treats empty strings as wildcards; ObjectsOf(s, p) is the
//     SP range, SubjectsOf(p, o) the PO range, OutEdges the S range,
//     InEdges the O range. Result order is unspecified; multiplicity
//     is one entry per matching triple.
type GraphReader interface {
	Len() int
	Triples() []Triple
	Has(s, p, o string) bool
	Subjects() []string
	Predicates() []string
	Objects() []string
	Match(s, p, o string) []Triple
	ObjectsOf(s, p string) []string
	SubjectsOf(p, o string) []string
	OutEdges(s string) []Triple
	InEdges(o string) []Triple
}

var _ GraphReader = (*Graph)(nil)

// TermIDSource is an optional extension of GraphReader that
// ComputeStats uses in place of interning the strings of Triples. A
// reader that can tell terms apart without building them (a store
// compares the fixed-width encoded terms of its keys) implements it.
//
// TermIDs returns every triple once, as in Triples, with each term
// replaced by an id in [0, n): two positions share an id exactly when
// they hold the same term.
type TermIDSource interface {
	TermIDs() (triples [][3]uint32, n int)
}
