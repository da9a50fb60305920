package rdf

// GraphReader is what the Section 7.1 analyses (ComputeStats) read of
// an RDF graph: its triples. *Graph satisfies it from memory;
// store.StoredGraph satisfies it with one scan of a corpus's SPO keys
// over committed segments, so the analyses run unchanged against
// either backend.
//
// Triples returns each triple exactly once (RDF set semantics).
// Iteration order is unspecified — *Graph yields insertion order, a
// store-backed reader yields key order — so analyses must be
// order-independent (ComputeStats aggregates and sorts).
type GraphReader interface {
	Triples() []Triple
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
