package automata

// The scratch of one containment decision. Lowering both sides,
// numbering their labels and running the antichain search fill a dozen
// tables sized by the expressions and the search, and all of them are
// dead once ContainsMappedCtx returns. On the small instances real
// schemas and queries are made of, allocating and then collecting those
// tables costs more than the search itself, so a decision draws them
// from a pool and hands them back. Every table is cleared or
// overwritten before it is read, so a pooled decision searches exactly
// as a fresh one does: the same label ids, set ids and successor order.

import (
	"sync"
	"unsafe"

	"repro/internal/automata/bitset"
)

// decision holds the buffers of one containment check.
type decision struct {
	sides  [2]side
	labels labelTable
	alpha  []string // appendAlphabet's output for the side being numbered
	search antichainScratch
}

// side is one side of a decision: the Glushkov builder's buffers and the
// position tables lowered from them.
type side struct {
	b glushkovBuilder
	c posNFA
}

// antichainScratch holds the tables of one antichain search (see
// containsAntichainCtx).
type antichainScratch struct {
	sets              setTable
	accepting         []bool
	heads             []int32
	nodes             []chainNode
	stack             []pairItem
	next, union, succ bitset.StateSet
}

// maxPooledBytes caps what a pooled decision keeps. A decision whose
// buffers grew past it is left to the garbage collector, so one wide
// request cannot pin its rows in the pool. One decision that decided
// the 256 pairs of BenchmarkContainsDecideColdMix holds about 90 KB.
const maxPooledBytes = 128 << 10

var decisions = sync.Pool{New: func() any { return new(decision) }}

// release returns d to the pool unless its buffers exceed
// maxPooledBytes. Labels alias request input, so they are dropped
// first, up to each buffer's capacity: a later, shorter use leaves
// an earlier one's labels past its length.
func (d *decision) release() {
	if d.bytes() > maxPooledBytes {
		return
	}
	for _, labels := range d.labelBuffers() {
		clear(labels[:cap(labels)])
	}
	decisions.Put(d)
}

// labelBuffers returns the buffers of d that hold label strings.
func (d *decision) labelBuffers() [4][]string {
	return [4][]string{d.sides[0].b.syms, d.sides[1].b.syms, d.labels.names, d.alpha}
}

// bytes is the capacity of d's buffers in bytes.
func (d *decision) bytes() int {
	n := capBytes(d.labels.names) + capBytes(d.labels.runs) + capBytes(d.alpha)
	for i := range d.sides {
		b, c := &d.sides[i].b, &d.sides[i].c
		n += capBytes(b.syms) + capBytes(b.sets) + capBytes(b.stack)
		n += capBytes(c.follow) + capBytes(c.pos) + capBytes(c.final) + capBytes(c.scratch) + capBytes(c.initial)
	}
	s := &d.search
	n += capBytes(s.sets.chunks) + capBytes(s.sets.hashes) + capBytes(s.sets.next) + capBytes(s.sets.heads)
	for _, chunk := range s.sets.chunks[:cap(s.sets.chunks)] {
		n += capBytes(chunk)
	}
	n += capBytes(s.accepting) + capBytes(s.heads) + capBytes(s.nodes) + capBytes(s.stack)
	return n + capBytes(s.next) + capBytes(s.union) + capBytes(s.succ)
}

func capBytes[S ~[]E, E any](s S) int {
	var e E
	return cap(s) * int(unsafe.Sizeof(e))
}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reuse returns s emptied, or an empty slice of capacity n when s holds
// fewer.
func reuse[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
}
