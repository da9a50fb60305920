package regex

// Linearization of a regular expression: every occurrence of a label gets a
// distinct position 1..n (preorder), and the classical Glushkov functions
// First, Last, Follow are computed over positions. These drive both the
// Glushkov automaton construction (internal/automata) and the
// one-unambiguity test of Brüggemann-Klein & Wood (internal/determinism).

// Linear holds the linearization of an expression.
type Linear struct {
	// Syms[i] is the label of position i+1 (positions are 1-based; position
	// 0 is reserved for the automaton's initial state).
	Syms []string
	// Nullable reports whether ε ∈ L(e).
	Nullable bool
	// First is the set of positions that can begin a word.
	First []int
	// Last is the set of positions that can end a word.
	Last []int
	// Follow[p] is the set of positions that can follow position p, for
	// p in 1..n; Follow[0] is always empty.
	Follow [][]int
}

// NumPositions returns the number of symbol occurrences in the expression.
func (l *Linear) NumPositions() int { return len(l.Syms) }

// Sym returns the label at position p (1-based).
func (l *Linear) Sym(p int) string { return l.Syms[p-1] }

// Linearize computes the Glushkov position functions of e.
//
// It allocates no map and no slice per node: every First/Last set is
// carved from one arena, child infos live on one stack, and follow edges
// are appended to one list that is bucketed by source at the end.
// Deduplication uses one epoch-stamped mark per position, so the
// allocation count grows with the logarithm of the output, not with the
// number of nodes (TestLinearizeAllocsLinear).
func Linearize(e *Expr) *Linear {
	// The node count bounds the positions and the stack depth, and is a
	// first guess for the arena.
	size := e.Size()
	lz := &linearizer{
		syms:  make([]string, 0, size),
		sets:  make([]int, 0, size),
		stack: make([]nodeInfo, 0, size),
		mark:  make([]uint32, 1, size+1),
	}
	info := lz.visit(e)
	return &Linear{
		Syms:     lz.syms,
		Nullable: info.nullable,
		First:    info.first,
		Last:     info.last,
		Follow:   lz.follow(),
	}
}

type nodeInfo struct {
	nullable bool
	empty    bool // L = ∅
	first    []int
	last     []int
}

// followEdge is one Last×First pair recorded by a concatenation or an
// iteration; duplicates are removed when the edges are bucketed.
type followEdge struct{ from, to int32 }

type linearizer struct {
	syms  []string
	sets  []int        // arena behind every first/last set
	stack []nodeInfo   // infos of the children of the nodes being visited
	edges []followEdge // in insertion order, duplicates included
	// mark[p] == epoch iff position p is already in the set being built.
	mark  []uint32
	epoch uint32
}

// begin starts a new set at the end of the arena.
func (lz *linearizer) begin() int {
	lz.epoch++
	return len(lz.sets)
}

// add appends the positions of set not yet in the set being built.
func (lz *linearizer) add(set []int) {
	for _, p := range set {
		if lz.mark[p] != lz.epoch {
			lz.mark[p] = lz.epoch
			lz.sets = append(lz.sets, p)
		}
	}
}

// end returns the set built since begin. It is capped, so no later
// append can write through it.
func (lz *linearizer) end(start int) []int {
	return lz.sets[start:len(lz.sets):len(lz.sets)]
}

func (lz *linearizer) addFollow(from, to []int) {
	for _, p := range from {
		for _, q := range to {
			lz.edges = append(lz.edges, followEdge{int32(p), int32(q)})
		}
	}
}

// follow buckets the recorded edges by source into one slab, keeping the
// first occurrence of each target in insertion order.
func (lz *linearizer) follow() [][]int {
	n := len(lz.syms)
	// Counting sort: pos[p] is first the end of bucket p; filling
	// backwards walks it down to the bucket's start and keeps insertion
	// order, so bucket p is slab[pos[p]:pos[p+1]].
	pos := make([]int, n+2)
	for _, e := range lz.edges {
		pos[e.from]++
	}
	for p := 1; p <= n+1; p++ {
		pos[p] += pos[p-1]
	}
	slab := make([]int, len(lz.edges))
	for i := len(lz.edges) - 1; i >= 0; i-- {
		e := lz.edges[i]
		pos[e.from]--
		slab[pos[e.from]] = int(e.to)
	}
	follow := make([][]int, n+1)
	for p := 1; p <= n; p++ {
		lz.epoch++
		lo, k := pos[p], pos[p]
		for _, q := range slab[lo:pos[p+1]] {
			if lz.mark[q] != lz.epoch {
				lz.mark[q] = lz.epoch
				slab[k] = q
				k++
			}
		}
		if k > lo {
			follow[p] = slab[lo:k:k]
		}
	}
	return follow
}

// children visits subs and returns their infos. The stack is already
// popped, so the infos stay valid only until the next visit.
func (lz *linearizer) children(subs []*Expr) []nodeInfo {
	base := len(lz.stack)
	for _, s := range subs {
		in := lz.visit(s)
		lz.stack = append(lz.stack, in)
	}
	infos := lz.stack[base:]
	lz.stack = lz.stack[:base]
	return infos
}

func (lz *linearizer) visit(e *Expr) nodeInfo {
	switch e.Kind {
	case Empty:
		return nodeInfo{empty: true}
	case Epsilon:
		return nodeInfo{nullable: true}
	case Symbol:
		lz.syms = append(lz.syms, e.Sym)
		lz.mark = append(lz.mark, 0)
		p := len(lz.syms)
		start := len(lz.sets)
		lz.sets = append(lz.sets, p)
		set := lz.end(start)
		return nodeInfo{first: set, last: set}
	case Union:
		infos := lz.children(e.Subs)
		out := nodeInfo{empty: true}
		for _, in := range infos {
			out.nullable = out.nullable || in.nullable
			out.empty = out.empty && in.empty
		}
		start := lz.begin()
		for _, in := range infos {
			lz.add(in.first)
		}
		out.first = lz.end(start)
		start = lz.begin()
		for _, in := range infos {
			lz.add(in.last)
		}
		out.last = lz.end(start)
		return out
	case Concat:
		infos := lz.children(e.Subs)
		out := nodeInfo{nullable: true}
		for _, in := range infos {
			out.empty = out.empty || in.empty
			out.nullable = out.nullable && in.nullable
		}
		if out.empty {
			return nodeInfo{empty: true}
		}
		// First: union of firsts of the longest nullable prefix + the next.
		start := lz.begin()
		for _, in := range infos {
			lz.add(in.first)
			if !in.nullable {
				break
			}
		}
		out.first = lz.end(start)
		// Last: symmetric from the right.
		start = lz.begin()
		for i := len(infos) - 1; i >= 0; i-- {
			lz.add(infos[i].last)
			if !infos[i].nullable {
				break
			}
		}
		out.last = lz.end(start)
		// Follow: last(e_i) × first(e_j) for j the next non-skipped factor,
		// allowing intervening nullable factors.
		for i := 0; i < len(infos); i++ {
			for j := i + 1; j < len(infos); j++ {
				lz.addFollow(infos[i].last, infos[j].first)
				if !infos[j].nullable {
					break
				}
			}
		}
		return out
	case Star, Plus:
		in := lz.visit(e.Sub())
		if in.empty {
			if e.Kind == Star {
				return nodeInfo{nullable: true}
			}
			return nodeInfo{empty: true}
		}
		lz.addFollow(in.last, in.first)
		return nodeInfo{
			nullable: e.Kind == Star || in.nullable,
			first:    in.first,
			last:     in.last,
		}
	case Opt:
		in := lz.visit(e.Sub())
		if in.empty {
			return nodeInfo{nullable: true}
		}
		in.nullable = true
		return in
	}
	panic("regex: unknown kind")
}
