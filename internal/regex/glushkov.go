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
	// Follow[p] is the set of positions that can follow position p.
	Follow map[int][]int
}

// NumPositions returns the number of symbol occurrences in the expression.
func (l *Linear) NumPositions() int { return len(l.Syms) }

// Sym returns the label at position p (1-based).
func (l *Linear) Sym(p int) string { return l.Syms[p-1] }

// Linearize computes the Glushkov position functions of e.
func Linearize(e *Expr) *Linear {
	lz := &linearizer{follow: map[int][]int{}}
	info := lz.visit(e)
	return &Linear{
		Syms:     lz.syms,
		Nullable: info.nullable,
		First:    info.first,
		Last:     info.last,
		Follow:   lz.follow,
	}
}

type nodeInfo struct {
	nullable bool
	empty    bool // L = ∅
	first    []int
	last     []int
}

type linearizer struct {
	syms   []string
	follow map[int][]int
}

func (lz *linearizer) addFollow(from int, tos []int) {
	if len(tos) == 0 {
		return
	}
	lz.follow[from] = appendUnique(lz.follow[from], tos)
}

func appendUnique(dst []int, src []int) []int {
	seen := make(map[int]bool, len(dst))
	for _, x := range dst {
		seen[x] = true
	}
	for _, x := range src {
		if !seen[x] {
			dst = append(dst, x)
			seen[x] = true
		}
	}
	return dst
}

func (lz *linearizer) visit(e *Expr) nodeInfo {
	switch e.Kind {
	case Empty:
		return nodeInfo{empty: true}
	case Epsilon:
		return nodeInfo{nullable: true}
	case Symbol:
		lz.syms = append(lz.syms, e.Sym)
		p := len(lz.syms)
		return nodeInfo{first: []int{p}, last: []int{p}}
	case Union:
		out := nodeInfo{empty: true}
		for _, s := range e.Subs {
			in := lz.visit(s)
			out.nullable = out.nullable || in.nullable
			out.empty = out.empty && in.empty
			out.first = appendUnique(out.first, in.first)
			out.last = appendUnique(out.last, in.last)
		}
		return out
	case Concat:
		out := nodeInfo{nullable: true}
		infos := make([]nodeInfo, 0, len(e.Subs))
		for _, s := range e.Subs {
			in := lz.visit(s)
			infos = append(infos, in)
			out.empty = out.empty || in.empty
			out.nullable = out.nullable && in.nullable
		}
		if out.empty {
			return nodeInfo{empty: true}
		}
		// First: union of firsts of the longest nullable prefix + the next.
		for _, in := range infos {
			out.first = appendUnique(out.first, in.first)
			if !in.nullable {
				break
			}
		}
		// Last: symmetric from the right.
		for i := len(infos) - 1; i >= 0; i-- {
			out.last = appendUnique(out.last, infos[i].last)
			if !infos[i].nullable {
				break
			}
		}
		// Follow: last(e_i) × first(e_j) for j the next non-skipped factor,
		// allowing intervening nullable factors.
		for i := 0; i < len(infos); i++ {
			for j := i + 1; j < len(infos); j++ {
				for _, p := range infos[i].last {
					lz.addFollow(p, infos[j].first)
				}
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
		for _, p := range in.last {
			lz.addFollow(p, in.first)
		}
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
