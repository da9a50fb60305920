package automata

// Position tables: the automaton form the containment engine searches.
// A Glushkov automaton is homogeneous — every transition into position
// p carries p's own label — so it is fully described by two bitset
// tables over its states:
//
//	follow[q]  the successors of q on any label (state 0 steps to First)
//	pos[l]     the states entered on label l
//
// and the successors of a state set S on l are (∪_{q∈S} follow[q]) ∩
// pos[l]. Both tables live in pointer-free []uint64 slabs, one row of
// ⌈states/64⌉ words per state or label.
//
// lowerExpr runs the Glushkov visit below (glushkovBuilder, the same
// pass Glushkov runs) with the follow rows as its sink; bindLabels then
// fills pos once both sides' labels are numbered. A label map on the
// left side (ContainsMappedCtx) acts there too: a position whose label
// the map drops gets no pos bit, so no transition enters it, and a
// renamed one goes to its new label's row.

import (
	"slices"

	"repro/internal/automata/bitset"
	"repro/internal/regex"
)

// labelTable numbers the labels of one decision, so both sides of a
// containment check agree on label ids. Each add appends the labels it
// has not seen as one sorted run of ids.
type labelTable struct {
	names []string // by id
	runs  []int    // first id of each run
}

// add numbers the labels of alphabet (sorted, distinct) not yet in t.
func (t *labelTable) add(alphabet []string) {
	start := len(t.names)
	for _, a := range alphabet {
		if t.id(a) < 0 {
			t.names = append(t.names, a)
		}
	}
	if len(t.names) > start {
		t.runs = append(t.runs, start)
	}
}

// id returns the id of a, or -1 when a is not in t.
func (t *labelTable) id(a string) int {
	for i, lo := range t.runs {
		hi := len(t.names)
		if i+1 < len(t.runs) {
			hi = t.runs[i+1]
		}
		if j, ok := slices.BinarySearch(t.names[lo:hi], a); ok {
			return lo + j
		}
	}
	return -1
}

func (t *labelTable) len() int { return len(t.names) }

// posNFA is a homogeneous automaton as position tables: with w =
// ⌈numStates/64⌉, follow[q·w:(q+1)·w] is follow row q and
// pos[l·w:(l+1)·w] is the row of label l, for l < width.
type posNFA struct {
	numStates int
	words     int
	width     int
	follow    []uint64
	pos       []uint64
	final     bitset.StateSet
	initial   []int
	// scratch holds the target set of a dense addFollow while lowerExpr
	// runs; it is nil afterwards.
	scratch bitset.StateSet
}

// newPosNFA sizes the tables of a numStates-state automaton with width
// label rows.
func newPosNFA(numStates, width int) *posNFA {
	w := (numStates + 63) / 64
	return &posNFA{
		numStates: numStates,
		words:     w,
		width:     width,
		follow:    make([]uint64, numStates*w),
		pos:       make([]uint64, width*w),
		final:     bitset.New(numStates),
	}
}

func (c *posNFA) followRow(q int) bitset.StateSet {
	return c.follow[q*c.words : (q+1)*c.words : (q+1)*c.words]
}

func (c *posNFA) posRow(l int) bitset.StateSet {
	return c.pos[l*c.words : (l+1)*c.words : (l+1)*c.words]
}

// lowerExpr builds the Glushkov automaton of e (see Glushkov) without
// its pos rows, which bindLabels adds, and returns it with the label of
// each position: syms[p-1] labels position p. The visit is Glushkov's,
// with c's follow rows as the sink. After bindLabels the tables hold
// Glushkov(e)'s transitions, row for row, and pos bits of positions no
// transition enters, such as those under ∅
// (TestLowerExprMatchesGlushkov).
func lowerExpr(e *regex.Expr) (c *posNFA, syms []string) {
	n, nodes := measure(e)
	c = newPosNFA(n+1, 0)
	c.scratch = bitset.New(n + 1)
	b := newGlushkovBuilder(n, nodes)
	b.sink = c
	info := b.visit(e)
	c.addFollow(b.sets, span{0, 1}, info.first)
	c.scratch = nil
	c.initial = []int{0}
	if info.nullable {
		c.final.Add(0)
	}
	for _, p := range b.set(info.last) {
		c.final.Add(int(p))
	}
	return c, b.syms
}

// addFollow adds to ⊆ follow(p) for every p in from. A dense target
// set is ORed in as one word range; a sparse one bit by bit.
func (c *posNFA) addFollow(sets []int32, fromSpan, toSpan span) {
	from, to := fromSpan.of(sets), toSpan.of(sets)
	if len(from) == 0 || len(to) == 0 {
		return
	}
	lo, hi := int(to[0]), int(to[0])
	for _, q := range to {
		lo, hi = min(lo, int(q)), max(hi, int(q))
	}
	lo, hi = lo>>6, hi>>6+1
	if len(from) == 1 || len(to) <= hi-lo {
		for _, p := range from {
			row := c.followRow(int(p))
			for _, q := range to {
				row.Add(int(q))
			}
		}
		return
	}
	for _, q := range to {
		c.scratch.Add(int(q))
	}
	src := c.scratch[lo:hi]
	for _, p := range from {
		c.followRow(int(p))[lo:hi].UnionWith(src)
	}
	src.Clear()
}

// alphabetOf returns the sorted label set of syms — the alphabet of the
// Glushkov automaton, which counts every symbol occurrence, even one
// under ∅ that no transition enters — without the "" of positions a
// label map dropped. Expressions repeat few labels many times, so it
// finds them by a linear search while there are few of them, and beyond
// that sorts the remaining occurrences, which takes less memory than a
// set. Few labels get a slice of their own size.
func alphabetOf(syms []string) []string {
	var buf [maxLinearAlphabet]string
	alpha := buf[:0]
	for i, a := range syms {
		if a == "" || slices.Contains(alpha, a) {
			continue
		}
		if len(alpha) == maxLinearAlphabet {
			all := append(append(make([]string, 0, len(alpha)+len(syms)-i), alpha...), syms[i:]...)
			slices.Sort(all)
			all = slices.Compact(all)
			if all[0] == "" {
				all = all[1:]
			}
			return all
		}
		alpha = append(alpha, a)
	}
	slices.Sort(alpha)
	return slices.Clone(alpha)
}

// maxLinearAlphabet is how many distinct labels alphabetOf finds by
// linear search before it switches to sorting.
const maxLinearAlphabet = 32

// bindLabels sizes the pos rows of c to the label table, whose ids must
// already cover syms, and sets position p in the row of syms[p-1],
// unless that is "" (a label map dropped it).
func (c *posNFA) bindLabels(syms []string, labels *labelTable) {
	c.width = labels.len()
	c.pos = make([]uint64, c.width*c.words)
	for i, a := range syms {
		if a != "" {
			c.posRow(labels.id(a)).Add(i + 1)
		}
	}
}

// measure returns the number of positions (symbol occurrences) and of
// nodes of e.
func measure(e *regex.Expr) (positions, nodes int) {
	if e.Kind == regex.Symbol {
		return 1, 1
	}
	nodes = 1
	for _, s := range e.Subs {
		p, n := measure(s)
		positions += p
		nodes += n
	}
	return positions, nodes
}

// span is a run sets[lo:hi] of a glushkovBuilder's arena.
type span struct{ lo, hi int32 }

func (s span) of(sets []int32) []int32 { return sets[s.lo:s.hi:s.hi] }

// nodeInfo is what a subexpression tells its parent. First and Last of
// disjoint subtrees are disjoint, so unions of them never need
// deduplication.
type nodeInfo struct {
	nullable bool
	empty    bool // L = ∅
	first    span
	last     span
}

// followSink receives the follow edges of a Glushkov visit as last ×
// first products of arena spans: every position of to.of(sets) follows
// every position of from.of(sets). The position tables (*posNFA) OR
// them into rows; Glushkov and NewMatcher read them after the visit.
type followSink interface {
	addFollow(sets []int32, from, to span)
}

// products keeps a visit's products as they come, linear where
// (a + … + a)* alone has n² follow pairs: product k is ps[2k] × ps[2k+1].
type products []span

func (ps *products) addFollow(_ []int32, from, to span) { *ps = append(*ps, from, to) }

// visitProducts runs the Glushkov visit of e and returns its builder,
// its products, the first being {0} × First(e), and the root's info.
func visitProducts(e *regex.Expr) (*glushkovBuilder, products, nodeInfo) {
	n, nodes := measure(e)
	b := newGlushkovBuilder(n, nodes)
	ps := make(products, 2, 2+2*nodes)
	b.sink = &ps
	info := b.visit(e)
	ps[0], ps[1] = span{0, 1}, info.first
	return &b, ps, info
}

// glushkovBuilder is the one pass behind lowerExpr, Glushkov and
// NewMatcher. Positions are numbered 1..n in preorder; First and Last
// sets are spans of one arena, which only grows, and Follow goes
// straight into the sink.
type glushkovBuilder struct {
	sink  followSink
	syms  []string
	sets  []int32    // arena behind every first/last set
	stack []nodeInfo // infos of the children of the nodes being visited
}

// newGlushkovBuilder sizes a builder for an expression with the given
// numbers of positions and nodes (see measure); the caller sets its sink.
// Its arena starts with span{0, 1}, the set {0} of the initial state,
// and twice the node count is a first guess for the rest.
func newGlushkovBuilder(positions, nodes int) glushkovBuilder {
	return glushkovBuilder{
		syms:  make([]string, 0, positions),
		sets:  append(make([]int32, 0, 2*nodes+1), 0),
		stack: make([]nodeInfo, 0, nodes),
	}
}

func (b *glushkovBuilder) set(s span) []int32 { return s.of(b.sets) }

// union returns the union of the first (or last) sets of infos, carved
// from the arena.
func (b *glushkovBuilder) union(infos []nodeInfo, last bool) span {
	start := len(b.sets)
	for _, in := range infos {
		s := in.first
		if last {
			s = in.last
		}
		b.sets = append(b.sets, b.set(s)...)
	}
	return span{int32(start), int32(len(b.sets))}
}

// children visits subs and returns their infos. The stack is already
// popped, so the infos stay valid only until the next visit.
func (b *glushkovBuilder) children(subs []*regex.Expr) []nodeInfo {
	base := len(b.stack)
	for _, s := range subs {
		in := b.visit(s)
		b.stack = append(b.stack, in)
	}
	infos := b.stack[base:]
	b.stack = b.stack[:base]
	return infos
}

func (b *glushkovBuilder) visit(e *regex.Expr) nodeInfo {
	switch e.Kind {
	case regex.Empty:
		return nodeInfo{empty: true}
	case regex.Epsilon:
		return nodeInfo{nullable: true}
	case regex.Symbol:
		b.syms = append(b.syms, e.Sym)
		b.sets = append(b.sets, int32(len(b.syms)))
		set := span{int32(len(b.sets) - 1), int32(len(b.sets))}
		return nodeInfo{first: set, last: set}
	case regex.Union:
		infos := b.children(e.Subs)
		out := nodeInfo{empty: true}
		for _, in := range infos {
			out.nullable = out.nullable || in.nullable
			out.empty = out.empty && in.empty
		}
		out.first = b.union(infos, false)
		out.last = b.union(infos, true)
		return out
	case regex.Concat:
		infos := b.children(e.Subs)
		out := nodeInfo{nullable: true}
		for _, in := range infos {
			out.empty = out.empty || in.empty
			out.nullable = out.nullable && in.nullable
		}
		// A factor with L = ∅ empties the product: no first or last
		// set and no edges across factors. Edges inside the factors
		// were added by their own visits and stay.
		if out.empty {
			return nodeInfo{empty: true}
		}
		// First: the firsts of the longest nullable prefix and the
		// factor after it; Last symmetrically from the right.
		end := 0
		for end < len(infos) && infos[end].nullable {
			end++
		}
		out.first = b.union(infos[:min(end+1, len(infos))], false)
		start := len(infos) - 1
		for start > 0 && infos[start].nullable {
			start--
		}
		out.last = b.union(infos[start:], true)
		// Follow: last(e_i) × first(e_j) for i < j with only nullable
		// factors between them.
		for j := 1; j < len(infos); j++ {
			for i := j - 1; i >= 0; i-- {
				b.sink.addFollow(b.sets, infos[i].last, infos[j].first)
				if !infos[i].nullable {
					break
				}
			}
		}
		return out
	case regex.Star, regex.Plus:
		in := b.visit(e.Sub())
		if in.empty {
			return nodeInfo{nullable: e.Kind == regex.Star, empty: e.Kind == regex.Plus}
		}
		b.sink.addFollow(b.sets, in.last, in.first)
		in.nullable = in.nullable || e.Kind == regex.Star
		return in
	case regex.Opt:
		in := b.visit(e.Sub())
		if in.empty {
			return nodeInfo{nullable: true}
		}
		in.nullable = true
		return in
	}
	panic("automata: unknown regex kind " + e.Kind.String())
}
