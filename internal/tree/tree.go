// Package tree implements the node-labeled ordered trees of Section 3 of
// "Towards Theory for Real-World Data": the common abstraction of XML and
// JSON documents as T = (V, E, lab) with a root, an ordered child relation,
// and a labeling function into Lab.
package tree

import (
	"fmt"
	"strings"
)

// Node is a node of a labeled ordered tree. Children are ordered, matching
// the XML abstraction (Section 3: "the trees are always ordered").
type Node struct {
	Label    string
	Children []*Node
}

// New constructs a node with the given label and children.
func New(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// Add appends children and returns the node (for fluent construction).
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Size returns the number of nodes of the tree rooted at n.
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Depth returns the depth of the tree: 1 for a leaf. The data sets of
// Section 3.1 have depth 7 (DBLP), 37 (Treebank), and 6 (Swissprot).
func (n *Node) Depth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// ChildWord returns the sequence of labels of n's children — the word that
// DTD validation matches against ρ(lab(n)) (Definition 4.1).
func (n *Node) ChildWord() []string {
	w := make([]string, len(n.Children))
	for i, c := range n.Children {
		w[i] = c.Label
	}
	return w
}

// Walk visits the subtree rooted at n in preorder.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// WalkPath visits every node together with the labels of its ancestors
// (root first, excluding the node itself) — the "ancestor string" used by
// the pattern-based schemas of Section 4.4.
func (n *Node) WalkPath(f func(node *Node, ancestors []string)) {
	var rec func(m *Node, anc []string)
	rec = func(m *Node, anc []string) {
		f(m, anc)
		anc = append(anc, m.Label)
		for _, c := range m.Children {
			rec(c, anc)
		}
	}
	rec(n, nil)
}

// Clone deep-copies the tree.
func (n *Node) Clone() *Node {
	c := &Node{Label: n.Label}
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// Equal reports structural equality.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Label != m.Label || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the tree as label(child1, child2, …).
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	b.WriteString(n.Label)
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.render(b)
	}
	b.WriteByte(')')
}

// Parse parses the String() format: label(child, …). Labels are
// non-empty runs of characters other than '(', ')', ',' and whitespace.
func Parse(s string) (*Node, error) {
	p := &parser{src: s}
	n, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("tree: trailing input %q", p.src[p.pos:])
	}
	return n, nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) *Node {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) parseNode() (*Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("(), \t\n", rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("tree: expected label at offset %d in %q", p.pos, p.src)
	}
	n := &Node{Label: p.src[start:p.pos]}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			c, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("tree: missing ')' in %q", p.src)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("tree: unexpected %q at offset %d", p.src[p.pos], p.pos)
		}
	}
	return n, nil
}
