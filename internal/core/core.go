// Package core is the system of Section 11 of "Towards Theory for
// Real-World Data": a SHARQL-style corpus analyzer that subjects every
// query of a log to a battery of analytical tests and aggregates the
// results into the paper's tables — Table 2 (Total/Valid/Unique), Figure 3
// (triple-count distribution), Table 3 (feature usage), Tables 4/5
// (operator-set fragments), Table 6 (free-connex acyclicity and hypertree
// width), Table 7 (canonical-graph shapes) and Table 8 (property-path
// types), plus the well-designedness and tractability statistics of
// Sections 9.4 and 9.6.
package core

import (
	"encoding/binary"
	"slices"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/propertypath"
	"repro/internal/regex"
	"repro/internal/sparql"
	"repro/internal/sparqlalg"
)

// Counter2 is a (Valid, Unique) pair of counts: every per-query statistic
// is reported for the multiset of valid queries and for the deduplicated
// set, matching the X (Y) convention of Section 9.
type Counter2 struct {
	V, U int
}

// ShapeLevel is a row of the cumulative shape analysis of Table 7.
type ShapeLevel int

// Table 7 rows, in cumulative order.
const (
	ShapeNoEdge ShapeLevel = iota
	ShapeOneEdge
	ShapeChain
	ShapeStar
	ShapeTree
	ShapeForest
	ShapeTW2
	ShapeTW3
	ShapeBeyond
	numShapeLevels
)

var shapeNames = [numShapeLevels]string{
	"no edge", "<=1 edge", "chain", "star", "tree", "forest", "tw<=2", "tw<=3", "beyond",
}

// String returns the paper's row label.
func (s ShapeLevel) String() string { return shapeNames[s] }

// HypertreeStats is one half of Table 6 (for CQ or CQ+F).
type HypertreeStats struct {
	FCA   Counter2
	Htw1  Counter2
	Htw2  Counter2
	Htw3  Counter2
	Total Counter2
}

// SourceReport aggregates every analysis for one log source.
type SourceReport struct {
	Name     string
	Wikidata bool
	Robotic  bool

	// Table 2
	Total, Valid, Unique int

	// Figure 3: buckets 0..10 and 11+ (index 11), over Select/Ask/
	// Construct queries only (Describe is excluded, Section 9.3).
	TripleBuckets [12]Counter2
	CountedV      int // queries contributing to the buckets
	CountedU      int
	MaxTriples    int

	// Table 3
	Features map[sparql.Feature]*Counter2

	// Tables 4/5: operator-set name → count ("none", "And", "Filter",
	// "And, Filter", "2RPQ", …, "beyond").
	OperatorSets map[string]*Counter2

	// Section 9.4: well-designedness among And/Filter/Optional queries.
	AFO, WellDesigned Counter2
	// Section 9.1: unions of well-designed patterns / well-behaved queries
	// (Picalausa & Vansummeren: 83.8% (75.7%) of all patterns).
	WellBehaved Counter2

	// Table 6
	CQ, CQF HypertreeStats

	// Section 9.5: filter classes among CQ+F queries.
	SafeFilterOnly, SimpleFilterOnly Counter2

	// Table 7: cumulative shape levels for graph-CQ+F queries, with and
	// without constants. The counters are *exact* levels; the renderer
	// accumulates.
	GraphCQF                Counter2
	ShapeWith, ShapeWithout [numShapeLevels]Counter2

	// Table 8 and Section 9.6 (per property path, not per query).
	PPRows    map[propertypath.Table8Row]*Counter2
	PPTotal   Counter2
	PPQueries Counter2 // queries using ≥ 1 property path
	NonSTE    Counter2 // paths outside simple transitive expressions
	NonCtract Counter2
	NonTtract Counter2
}

// NewSourceReport returns an empty report.
func NewSourceReport(name string) *SourceReport {
	return &SourceReport{
		Name:         name,
		Features:     map[sparql.Feature]*Counter2{},
		OperatorSets: map[string]*Counter2{},
		PPRows:       map[propertypath.Table8Row]*Counter2{},
	}
}

// Analyzer ingests raw query strings for one source. An Analyzer may hold
// the full stream of a source or just one shard of it: the seen map keeps,
// per canonical form first observed here, the outcome of its first
// occurrence, which is exactly what MergeShards needs to resolve
// cross-shard duplicates.
type Analyzer struct {
	Report *SourceReport
	seen   map[string]*outcome
	// memo maps each raw string ingested here (up to memoMaxEntries
	// strings and memoMaxBytes bytes) to its outcome, nil for a parse
	// failure, so a raw repeat replays its counter bumps instead of
	// parsing and running the battery again.
	memo      map[string]*outcome
	memoBytes int
	memoHits  int
	// outcomes interns outcomes by their counted flag and the ids (in
	// ids) of the counters they touch: real logs have far fewer distinct
	// outcomes than distinct query strings.
	outcomes map[string]*outcome
	ids      map[*Counter2]int
	cur      outcome // the outcome being recorded by analyze
	key      []byte  // scratch buffer for intern keys
	// ppCache memoizes the property-path classifier stack keyed on the
	// path's rendering (sparql.PathString): duplicate-heavy robotic logs
	// hit the same paths millions of times.
	ppCache map[string]ppClass
}

// Bounds on an analyzer's raw-string memo. Once either is reached, new
// strings are analyzed in full and not remembered; dedup (seen) is not
// bounded by them.
const (
	memoMaxEntries = 1 << 16
	memoMaxBytes   = 16 << 20
)

// outcome records what the battery added to a report for one valid
// query besides Total, Valid and Unique: whether it bumped CountedV
// (CountedU too when unique) and every counter it bumped, once per bump.
// The battery is a deterministic function of the canonical form, so the
// record stands for every occurrence of the query: a repeat adds 1 to V
// of each touched counter, and a first occurrence also adds 1 to U.
// MaxTriples needs no record: a repeat cannot raise it.
type outcome struct {
	counted bool
	touched []*Counter2
}

// replay adds one non-unique occurrence of a valid query to r.
func (o *outcome) replay(r *SourceReport) {
	r.Valid++
	if o.counted {
		r.CountedV++
	}
	for _, c := range o.touched {
		c.V++
	}
}

// ppClass is the memoized result of the Table 8 / Section 9.6 classifiers
// for one property path.
type ppClass struct {
	row              propertypath.Table8Row
	simpleTransitive bool
	ctract           bool
	ttract           bool
}

// NewAnalyzer returns an analyzer for one source (or one shard of one).
func NewAnalyzer(name string) *Analyzer {
	return &Analyzer{
		Report:   NewSourceReport(name),
		seen:     map[string]*outcome{},
		memo:     map[string]*outcome{},
		outcomes: map[string]*outcome{},
		ids:      map[*Counter2]int{},
		ppCache:  map[string]ppClass{},
	}
}

// analyzeHook, when non-nil, runs before the analysis battery of every
// valid query; tests use it to inject panics into the battery.
var analyzeHook func(*sparql.Query)

// parseHook, when non-nil, runs before parsing inside parseSafe; tests
// use it to inject parser panics and assert they are absorbed.
var parseHook func(string)

// Ingest processes one raw query string through the full battery, or
// replays its memoized outcome when the same string was ingested here
// before. It is panic-safe at the per-query boundary: a pathological
// input that panics the parser or the analysis battery is counted as
// invalid instead of killing the run (or, in the parallel pipeline, a
// whole worker).
func (a *Analyzer) Ingest(raw string) {
	r := a.Report
	r.Total++
	if o, hit := a.memo[raw]; hit {
		// A raw repeat is a non-unique copy of its canonical form here,
		// so U never moves.
		a.memoHits++
		if o != nil {
			o.replay(r)
		}
		return
	}
	q, canon, ok := parseSafe(raw)
	if !ok {
		a.remember(raw, nil)
		return
	}
	r.Valid++
	_, dup := a.seen[canon]
	unique := !dup
	if unique {
		r.Unique++
	}
	a.cur = outcome{touched: a.cur.touched[:0]}
	if !a.analyzeSafe(q, unique) {
		// The battery panicked mid-query: count the query as invalid and
		// record nothing, so a later occurrence of the same string or
		// canonical form runs the battery again and is handled
		// identically in sequential and sharded runs.
		r.Valid--
		if unique {
			r.Unique--
		}
		return
	}
	o := a.intern()
	if unique {
		a.seen[canon] = o
	}
	a.remember(raw, o)
}

// add bumps c for one occurrence and records it in the current outcome.
func (a *Analyzer) add(c *Counter2, unique bool) {
	c.V++
	if unique {
		c.U++
	}
	a.cur.touched = append(a.cur.touched, c)
}

// intern returns the shared copy of the current outcome.
func (a *Analyzer) intern() *outcome {
	key := a.key[:0]
	if a.cur.counted {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	for _, c := range a.cur.touched {
		id, ok := a.ids[c]
		if !ok {
			id = len(a.ids)
			a.ids[c] = id
		}
		key = binary.AppendUvarint(key, uint64(id))
	}
	a.key = key
	if o, ok := a.outcomes[string(key)]; ok {
		return o
	}
	o := &outcome{counted: a.cur.counted, touched: slices.Clone(a.cur.touched)}
	a.outcomes[string(key)] = o
	return o
}

// remember memoizes raw's outcome while the memo is under its bounds.
func (a *Analyzer) remember(raw string, o *outcome) {
	if len(a.memo) >= memoMaxEntries || a.memoBytes+len(raw) > memoMaxBytes {
		return
	}
	a.memo[raw] = o
	a.memoBytes += len(raw)
}

// parseSafe parses and canonicalizes one raw query, converting parser
// panics into parse failures.
func parseSafe(raw string) (q *sparql.Query, canon string, ok bool) {
	defer func() {
		if recover() != nil {
			q, canon, ok = nil, "", false
		}
	}()
	if parseHook != nil {
		parseHook(raw)
	}
	parsed, err := sparql.Parse(raw)
	if err != nil {
		return nil, "", false
	}
	return parsed, parsed.Canonical(), true
}

// analyzeSafe runs the battery, reporting whether it completed without
// panicking.
func (a *Analyzer) analyzeSafe(q *sparql.Query, unique bool) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if analyzeHook != nil {
		analyzeHook(q)
	}
	a.analyze(q, unique)
	return true
}

// classifyPP runs the property-path classifier stack through the
// per-analyzer memoization cache.
func (a *Analyzer) classifyPP(pp *regex.Expr) ppClass {
	key := sparql.PathString(pp)
	if c, hit := a.ppCache[key]; hit {
		return c
	}
	c := ppClass{
		row:              propertypath.Classify(pp),
		simpleTransitive: propertypath.IsSimpleTransitive(pp),
	}
	c.ctract, c.ttract = propertypath.Tractability(pp)
	a.ppCache[key] = c
	return c
}

// analyze runs the per-query tests, bumping the V counter always and the
// U counter for the first occurrence.
func (a *Analyzer) analyze(q *sparql.Query, unique bool) {
	r := a.Report

	// Figure 3
	if q.Type != sparql.Describe {
		n := q.TripleCount()
		if n > r.MaxTriples {
			r.MaxTriples = n
		}
		b := n
		if b > 11 {
			b = 11
		}
		a.add(&r.TripleBuckets[b], unique)
		r.CountedV++
		if unique {
			r.CountedU++
		}
		a.cur.counted = true
	}

	// Table 3
	for f := range q.Features() {
		c := r.Features[f]
		if c == nil {
			c = &Counter2{}
			r.Features[f] = c
		}
		a.add(c, unique)
	}

	// Tables 4/5
	ops := q.Operators()
	oc := r.OperatorSets[ops.Name()]
	if oc == nil {
		oc = &Counter2{}
		r.OperatorSets[ops.Name()] = oc
	}
	a.add(oc, unique)

	// Section 9.4
	if sparqlalg.UsesOnlyAFO(q) {
		a.add(&r.AFO, unique)
		if sparqlalg.IsWellDesigned(q) {
			a.add(&r.WellDesigned, unique)
		}
	}
	// Section 9.1
	if sparqlalg.IsWellBehaved(q) {
		a.add(&r.WellBehaved, unique)
	}

	// Table 6 + Section 9.5 + Table 7 for the conjunctive fragments
	if q.IsCQF() {
		a.analyzeConjunctive(q, unique)
	}

	// Table 8 / Section 9.6: property paths
	pps := q.PropertyPaths()
	if len(pps) > 0 {
		a.add(&r.PPQueries, unique)
	}
	for _, pp := range pps {
		a.add(&r.PPTotal, unique)
		cls := a.classifyPP(pp)
		c := r.PPRows[cls.row]
		if c == nil {
			c = &Counter2{}
			r.PPRows[cls.row] = c
		}
		a.add(c, unique)
		if !cls.simpleTransitive {
			a.add(&r.NonSTE, unique)
		}
		if !cls.ctract {
			a.add(&r.NonCtract, unique)
		}
		if !cls.ttract {
			a.add(&r.NonTtract, unique)
		}
	}
}

// analyzeConjunctive handles the CQ/CQ+F analyses.
func (a *Analyzer) analyzeConjunctive(q *sparql.Query, unique bool) {
	r := a.Report
	isCQ := q.IsCQ()

	// gather triple patterns and filters
	var triples []*sparql.Pattern
	var filters []*sparql.Expr
	q.Walk(func(p *sparql.Pattern) {
		switch p.Kind {
		case sparql.PTriple:
			triples = append(triples, p)
		case sparql.PFilter:
			if p.Expr != nil {
				filters = append(filters, p.Expr)
			}
		}
	})

	// canonical hypergraph (Section 9.5): triple hyperedges over var-like
	// terms, plus one hyperedge per filter over its variables
	h := hypergraph.New()
	varSet := map[string]bool{}
	for _, t := range triples {
		var vs []string
		for _, term := range []sparql.Term{t.S, t.P, t.O} {
			if term.IsVarLike() {
				vs = append(vs, "?"+term.Value)
				varSet["?"+term.Value] = true
			}
		}
		h.AddEdge(vs...)
	}
	allSafe, allSimple := true, true
	for _, f := range filters {
		vs := f.Vars()
		pref := make([]string, len(vs))
		for i, v := range vs {
			pref[i] = "?" + v
			varSet["?"+v] = true
		}
		h.AddEdge(pref...)
		if !f.IsSafeFilter() {
			allSafe = false
		}
		if !f.IsSimpleFilter() {
			allSimple = false
		}
	}
	// "only And and safe/simple filters" (Section 9.5); queries without
	// filters qualify vacuously.
	if allSafe {
		a.add(&r.SafeFilterOnly, unique)
	}
	if allSimple {
		a.add(&r.SimpleFilterOnly, unique)
	}

	// free variables: projection for SELECT, all variables for * and
	// non-SELECT forms
	var free []string
	if q.Type == sparql.Select && !q.Star {
		for _, it := range q.Items {
			if varSet["?"+it.Var] {
				free = append(free, "?"+it.Var)
			}
		}
	} else {
		for v := range varSet {
			free = append(free, v)
		}
	}

	fca := h.IsFreeConnexAcyclic(free)
	acyclic := h.IsAcyclic()
	htw1 := acyclic
	htw2 := htw1 || h.HypertreeWidthAtMost(2)
	htw3 := htw2 || h.HypertreeWidthAtMost(3)

	apply := func(st *HypertreeStats) {
		a.add(&st.Total, unique)
		if fca {
			a.add(&st.FCA, unique)
		}
		if htw1 {
			a.add(&st.Htw1, unique)
		}
		if htw2 {
			a.add(&st.Htw2, unique)
		}
		if htw3 {
			a.add(&st.Htw3, unique)
		}
	}
	apply(&r.CQF)
	if isCQ {
		apply(&r.CQ)
	}

	// Table 7: graph-CQ+F suitability
	if !isGraphPattern(triples) || !allSimple {
		return
	}
	a.add(&r.GraphCQF, unique)
	lvlWith := shapeLevel(canonicalGraph(triples, filters, true))
	lvlWithout := shapeLevel(canonicalGraph(triples, filters, false))
	a.add(&r.ShapeWith[lvlWith], unique)
	a.add(&r.ShapeWithout[lvlWithout], unique)
}

// isGraphPattern implements the Section 9.5 condition: every triple's
// predicate is an IRI, or a variable not occurring in any other triple
// pattern.
func isGraphPattern(triples []*sparql.Pattern) bool {
	occurrences := map[string]int{}
	for _, t := range triples {
		for _, term := range []sparql.Term{t.S, t.P, t.O} {
			if term.IsVarLike() {
				occurrences[term.Value]++
			}
		}
	}
	for _, t := range triples {
		if t.P.Kind == sparql.TermIRI {
			continue
		}
		if t.P.IsVarLike() && occurrences[t.P.Value] == 1 {
			continue
		}
		return false
	}
	return true
}

// canonicalGraph builds the Table 7 graph: nodes are subjects/objects
// (variables, blanks, and — when withConstants — IRIs and literals);
// edges come from triples and from binary filters.
func canonicalGraph(triples []*sparql.Pattern, filters []*sparql.Expr, withConstants bool) *graph.Graph {
	id := map[string]int{}
	nodeOf := func(t sparql.Term) (int, bool) {
		if t.IsVarLike() {
			k := "?" + t.Value
			if n, ok := id[k]; ok {
				return n, true
			}
			id[k] = len(id)
			return id[k], true
		}
		if !withConstants {
			return 0, false
		}
		k := "c:" + t.Value
		if n, ok := id[k]; ok {
			return n, true
		}
		id[k] = len(id)
		return id[k], true
	}
	type edge struct{ a, b int }
	var edges []edge
	for _, t := range triples {
		a, okA := nodeOf(t.S)
		b, okB := nodeOf(t.O)
		if okA && okB && a != b {
			edges = append(edges, edge{a, b})
		}
	}
	for _, f := range filters {
		vs := f.Vars()
		if len(vs) == 2 {
			a, _ := nodeOf(sparql.Term{Kind: sparql.TermVar, Value: vs[0]})
			b, _ := nodeOf(sparql.Term{Kind: sparql.TermVar, Value: vs[1]})
			if a != b {
				edges = append(edges, edge{a, b})
			}
		}
	}
	g := graph.New(len(id))
	for _, e := range edges {
		g.AddEdge(e.a, e.b)
	}
	return g
}

// shapeLevel classifies the canonical graph into its exact Table 7 level.
// Isolated vertices (e.g. variables whose only edges went to deleted
// constant nodes) are ignored for the connected shapes, matching the
// cumulative reading of the table.
func shapeLevel(g *graph.Graph) ShapeLevel {
	if g.HasNoEdge() {
		return ShapeNoEdge
	}
	if g.HasAtMostOneEdge() {
		return ShapeOneEdge
	}
	// drop isolated vertices
	var keep []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 0 {
			keep = append(keep, v)
		}
	}
	core := g.InducedSubgraph(keep)
	switch {
	case core.IsChain():
		return ShapeChain
	case core.IsStar():
		return ShapeStar
	case core.IsTree():
		return ShapeTree
	case core.IsForest():
		return ShapeForest
	}
	if ok, decided := graph.TreewidthAtMost(core, 2); decided && ok {
		return ShapeTW2
	} else if !decided {
		if _, ub := graph.Bounds(core); ub <= 2 {
			return ShapeTW2
		}
	}
	if ok, decided := graph.TreewidthAtMost(core, 3); decided && ok {
		return ShapeTW3
	} else if !decided {
		if _, ub := graph.Bounds(core); ub <= 3 {
			return ShapeTW3
		}
	}
	return ShapeBeyond
}
