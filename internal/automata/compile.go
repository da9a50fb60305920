package automata

// Compiled automaton form for the engine hot loops: labels are interned
// to dense ints once per decision, transitions live in flat arrays
// indexed [state·width + labelID], and each (state, label) successor set
// is additionally precomputed as a word-packed bitset mask, so a subset
// construction step is a handful of word ORs instead of map lookups and
// sorted-slice merges.
//
// There is one lowering with two feeders. compileLinear lowers a
// regex.Linear straight into the tables, so containment of expressions
// never builds the map-based NFA; compileNFA lowers an *NFA (the left
// side dtd passes). Both fill cells through compiledNFA.put and finish
// with compiledNFA.buildMasks, so every successor list is carved from
// one slab and every mask from another.

import (
	"slices"

	"repro/internal/automata/bitset"
	"repro/internal/regex"
)

// labelTable interns transition labels across the automata of one
// decision, so both sides of a containment check agree on label ids.
type labelTable struct {
	ids   map[string]int
	names []string
}

func newLabelTable() *labelTable {
	return &labelTable{ids: map[string]int{}}
}

// id returns the dense id of a, allocating one on first sight.
func (t *labelTable) id(a string) int {
	if id, ok := t.ids[a]; ok {
		return id
	}
	id := len(t.names)
	t.ids[a] = id
	t.names = append(t.names, a)
	return id
}

// add interns every label of alphabet, in order.
func (t *labelTable) add(alphabet []string) {
	for _, a := range alphabet {
		t.id(a)
	}
}

func (t *labelTable) len() int { return len(t.names) }

// linearAlphabet returns the sorted label set of l — the alphabet of its
// Glushkov automaton, since every symbol occurrence is a position, even
// one inside an ∅ subexpression that yields no transition.
func linearAlphabet(l *regex.Linear) []string {
	alpha := slices.Clone(l.Syms)
	slices.Sort(alpha)
	return slices.Compact(alpha)
}

// compiledNFA is an automaton lowered onto the label table. With w the
// table's size when the rows were sized, trans[q*w+l] is the successor
// list of state q on label l (sorted; nil when absent), mask[q*w+l] is
// the same set word-packed, and final is the final-state bitset.
type compiledNFA struct {
	numStates int
	width     int
	trans     [][]int
	mask      []bitset.StateSet
	initial   []int
	final     bitset.StateSet
	succ      []int // the slab behind trans
}

// newCompiled sizes the tables of a numStates-state automaton with edges
// transitions over every label interned so far. Labels the automaton
// never uses keep nil cells, which the engines treat as a transition
// into the empty set.
func newCompiled(numStates, edges int, labels *labelTable) *compiledNFA {
	w := labels.len()
	return &compiledNFA{
		numStates: numStates,
		width:     w,
		trans:     make([][]int, numStates*w),
		final:     bitset.New(numStates),
		succ:      make([]int, 0, edges),
	}
}

// put sets the successor list of q on label l to succs, copied into the
// slab.
func (c *compiledNFA) put(q, l int, succs []int) {
	start := len(c.succ)
	c.succ = append(c.succ, succs...)
	c.trans[q*c.width+l] = c.succ[start:len(c.succ):len(c.succ)]
}

// buildMasks packs every nonempty cell into a mask carved from one word
// slab.
func (c *compiledNFA) buildMasks() {
	cells := 0
	for _, succs := range c.trans {
		if len(succs) > 0 {
			cells++
		}
	}
	words := len(c.final)
	slab := make(bitset.StateSet, cells*words)
	c.mask = make([]bitset.StateSet, len(c.trans))
	for i, succs := range c.trans {
		if len(succs) == 0 {
			continue
		}
		m := slab[:words:words]
		slab = slab[words:]
		for _, p := range succs {
			m.Add(p)
		}
		c.mask[i] = m
	}
}

// compileNFA lowers n onto the shared label table, whose ids must already
// cover n's alphabet.
func compileNFA(n *NFA, labels *labelTable) *compiledNFA {
	edges := 0
	for _, row := range n.Trans {
		for _, succs := range row {
			edges += len(succs)
		}
	}
	c := newCompiled(n.NumStates, edges, labels)
	c.initial = append([]int(nil), n.Initial...)
	for q := range n.Final {
		if n.Final[q] {
			c.final.Add(q)
		}
	}
	for q, row := range n.Trans {
		for a, succs := range row {
			c.put(q, labels.id(a), succs)
		}
	}
	c.buildMasks()
	return c
}

// compileLinear lowers the Glushkov automaton of l (see Glushkov) onto
// the shared label table, whose ids must already cover l's alphabet. The
// tables equal those of compileNFA(Glushkov(e), labels) cell for cell
// (TestCompileLinearMatchesGlushkov): state 0 steps to First, position p
// to Follow[p], each successor on its own label, and each cell lists its
// successors in increasing order.
func compileLinear(l *regex.Linear, labels *labelTable) *compiledNFA {
	n := l.NumPositions()
	ids := make([]int, n+1)
	for p := 1; p <= n; p++ {
		ids[p] = labels.id(l.Sym(p))
	}
	edges := len(l.First)
	for _, f := range l.Follow {
		edges += len(f)
	}
	c := newCompiled(n+1, edges, labels)
	c.initial = []int{0}
	if l.Nullable {
		c.final.Add(0)
	}
	for _, p := range l.Last {
		c.final.Add(p)
	}
	byLabel := func(p, q int) int {
		if ids[p] != ids[q] {
			return ids[p] - ids[q]
		}
		return p - q
	}
	// scratch holds one state's successors, sorted by (label, position)
	// so each label's run becomes one cell.
	var scratch []int
	for q := 0; q <= n; q++ {
		succs := l.First
		if q > 0 {
			succs = l.Follow[q]
		}
		scratch = append(scratch[:0], succs...)
		slices.SortFunc(scratch, byLabel)
		for i := 0; i < len(scratch); {
			j := i + 1
			for j < len(scratch) && ids[scratch[j]] == ids[scratch[i]] {
				j++
			}
			c.put(q, ids[scratch[i]], scratch[i:j])
			i = j
		}
	}
	c.buildMasks()
	return c
}

// row returns the successor lists of q, indexed by label id.
func (c *compiledNFA) row(q int) [][]int {
	return c.trans[q*c.width : (q+1)*c.width]
}

// initialSet returns the initial subset-state as a bitset.
func (c *compiledNFA) initialSet() bitset.StateSet {
	s := bitset.New(c.numStates)
	for _, q := range c.initial {
		s.Add(q)
	}
	return s
}

// step writes δ(set, l) into out (which it clears first) using the
// precomputed masks. The result may be empty — the implicit sink of the
// determinized automaton.
func (c *compiledNFA) step(set bitset.StateSet, l int, out bitset.StateSet) {
	out.Clear()
	set.ForEach(func(q int) {
		if m := c.mask[q*c.width+l]; m != nil {
			out.UnionWith(m)
		}
	})
}
