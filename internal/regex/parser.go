package regex

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/textio"
)

// Parse parses the algebraic notation used throughout the paper:
//
//	expr   := term ('+' term)* | term ('|' term)*     union
//	term   := factor factor*                          concatenation
//	factor := atom ('*' | '+' | '?')*                 postfix iteration
//	atom   := label | '(' expr ')' | '<eps>' | '<empty>'
//
// Labels are runs of letters, digits, and the characters _ : # $ ' -.
// Because the paper overloads '+' both as infix union and as postfix
// iteration, Parse disambiguates lexically: a '+' that immediately follows an
// atom, a ')' or another postfix operator *without intervening whitespace* is
// the postfix operator; any other '+' is union. The unambiguous '|' is also
// accepted for union. Examples: "a+b" is a⁺·b while "a + b" and "a|b" are
// a ∪ b; "b* a (b* a)*" is the deterministic expression of Section 4.2.1.
//
// Parentheses nested deeper than textio.MaxDepth, or a tree higher than
// that (postfix runs count one level per operator), are a parse error.
func Parse(s string) (*Expr, error) {
	return ParseInto(s, new(Slabs))
}

// Slabs is reusable storage for the nodes and child lists of parsed
// trees. ParseInto builds its tree in sl's first node slab and first
// child-list slab, growing each to the size it needs up to maxSlab
// nodes; a tree too large for them continues in new slabs that sl does
// not keep. The zero Slabs is ready to use.
//
// A tree parsed into sl lives in sl: the next ParseInto into sl or a
// Clear of sl overwrites it. Use ParseInto only where every reader of
// the tree is done before sl is reused; code that keeps a tree, in a
// cache or in a result, calls Parse.
type Slabs struct {
	nodes []Expr
	ptrs  []*Expr // child lists, then initStack of stack room
	// nNodes and nPtrs bound the prefixes of nodes and of the child
	// lists that parses since the last Clear wrote; past them, up to
	// the stack room, the slabs are zero.
	nNodes, nPtrs int
}

// Clear zeroes what parses into sl wrote, so that a pooled Slabs keeps
// no label (labels alias the parsed text) and no child pointer alive;
// afterwards sl is zero up to its capacity. Trees parsed into sl must
// not be used afterwards.
func (sl *Slabs) Clear() {
	clear(sl.nodes[:sl.nNodes])
	clear(sl.ptrs[:sl.nPtrs])
	if c := cap(sl.ptrs); c > 0 {
		clear(sl.ptrs[c-initStack : c])
	}
	sl.nNodes, sl.nPtrs = 0, 0
}

// ParseInto is Parse with the tree built in sl; see Slabs for how long
// the tree lives. It returns the tree Parse returns.
func ParseInto(s string, sl *Slabs) (*Expr, error) {
	// Generated expressions have about 0.53 nodes per byte of text; a
	// slab of 9/16 per byte holds 99% of them in one allocation. A tree
	// of n nodes has n-1 children, so the child-list slab is as long;
	// the stack shares its allocation.
	n := min(len(s)*9/16+4, maxSlab)
	if cap(sl.nodes) < n {
		sl.nodes, sl.nNodes = make([]Expr, 0, n), 0
	}
	if cap(sl.ptrs) < n+initStack {
		sl.ptrs, sl.nPtrs = make([]*Expr, 0, n+initStack), 0
	}
	m := cap(sl.ptrs) - initStack
	p := parser{
		src:         s,
		prevAtomEnd: -1,
		slab:        n,
		nodes:       sl.nodes[:0],
		subs:        sl.ptrs[:0:m],
		stack:       sl.ptrs[m:m],
		firstNodes:  -1,
		firstSubs:   -1,
	}
	e, err := p.parse()
	if p.firstNodes < 0 {
		p.firstNodes = len(p.nodes)
	}
	if p.firstSubs < 0 {
		p.firstSubs = len(p.subs)
	}
	sl.nNodes = max(sl.nNodes, p.firstNodes)
	sl.nPtrs = max(sl.nPtrs, p.firstSubs)
	return e, err
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) *Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

// maxSlab bounds the slab length, and so what Parse allocates up front
// for a long input; initStack is the stack room allocated with the
// first child-list slab.
const (
	maxSlab   = 512
	initStack = 16
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokLabel
	tokLParen
	tokRParen
	tokUnion    // '+' (infix) or '|'
	tokStar     // '*'
	tokPlusPost // '+' (postfix)
	tokOpt      // '?'
	tokEps      // <eps>
	tokEmpty    // <empty>
)

func isLabelRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		r == '_' || r == ':' || r == '#' || r == '$' || r == '\'' || r == '-'
}

// isLabelByte is isLabelRune for an ASCII byte.
func isLabelByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '#' || c == '$' || c == '\'' || c == '-'
}

// parser is one pass over src. It holds a single token of lookahead,
// scanned on demand from a byte offset; labels are substrings of src.
// Nodes come from slabs, and the children of a concatenation or union
// gather on stack until the node is built. Error offsets count runes.
type parser struct {
	src   string
	off   int     // byte offset just past the current token
	tok   tokKind // current token, spanning src[start:off]
	start int
	// prevAtomEnd is the byte offset just past the previous atom, ')'
	// or postfix operator; a '+' starting there is postfix.
	prevAtomEnd int
	slab        int     // length of each new slab
	nodes       []Expr  // node slab; nodes[len:cap] are free
	subs        []*Expr // child-list slab; subs[len:cap] are free
	stack       []*Expr // children of the open concatenations and unions
	// firstNodes and firstSubs are the lengths at which the parse left
	// its first node and child-list slabs, or -1 while it is in them.
	firstNodes, firstSubs int
	depth                 int // open parentheses
	h                     int // height of the tree last parsed
}

// errTooDeep is the parse error of input nested past textio.MaxDepth.
var errTooDeep = fmt.Errorf("regex: nesting deeper than %d levels", textio.MaxDepth)

// above sets p.h to the height of a node whose highest child has height
// sub, and fails past textio.MaxDepth.
func (p *parser) above(sub int) error {
	if p.h = sub + 1; p.h > textio.MaxDepth {
		return p.fail(errTooDeep)
	}
	return nil
}

// parse parses all of src.
func (p *parser) parse() (*Expr, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseUnion()
	if err == nil && p.tok != tokEOF {
		err = p.fail(p.unexpected())
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// next scans the token after the current one. Its error is a lexical
// error, which always wins: Parse reports the first lexical error in
// the input even if a parse error comes before it.
func (p *parser) next() error {
	s := p.src
	for p.off < len(s) {
		i := p.off
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			switch {
			case unicode.IsSpace(r):
				p.off += n
				continue
			case isLabelRune(r):
				p.scanLabel(i + n)
				return nil
			}
			return fmt.Errorf("regex: invalid character %q at offset %d in %q", r, p.runeOffset(i), s)
		}
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			p.off++
			continue
		case '(':
			p.emit(tokLParen, i+1)
		case ')':
			p.emit(tokRParen, i+1)
			p.prevAtomEnd = i + 1
		case '|':
			p.emit(tokUnion, i+1)
		case '*':
			p.emit(tokStar, i+1)
			p.prevAtomEnd = i + 1
		case '?':
			p.emit(tokOpt, i+1)
			p.prevAtomEnd = i + 1
		case '+':
			if p.prevAtomEnd == i {
				p.emit(tokPlusPost, i+1)
				p.prevAtomEnd = i + 1
			} else {
				p.emit(tokUnion, i+1)
			}
		case '<':
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return fmt.Errorf("regex: unterminated '<' at offset %d in %q", p.runeOffset(i), s)
			}
			switch word := s[i : i+j+1]; word {
			case "<eps>":
				p.emit(tokEps, i+j+1)
			case "<empty>":
				p.emit(tokEmpty, i+j+1)
			default:
				// string([]rune(…)) spells invalid bytes as U+FFFD.
				return fmt.Errorf("regex: unknown token %q at offset %d", string([]rune(word)), p.runeOffset(i))
			}
			p.prevAtomEnd = p.off
		default:
			if !isLabelByte(c) {
				return fmt.Errorf("regex: invalid character %q at offset %d in %q", rune(c), p.runeOffset(i), s)
			}
			p.scanLabel(i + 1)
		}
		return nil
	}
	p.emit(tokEOF, len(s))
	return nil
}

// emit makes src[p.off:end] the current token.
func (p *parser) emit(k tokKind, end int) {
	p.tok, p.start, p.off = k, p.off, end
}

// scanLabel emits the label that starts at p.off and continues at j.
func (p *parser) scanLabel(j int) {
	s := p.src
	for j < len(s) {
		if c := s[j]; c < utf8.RuneSelf {
			if !isLabelByte(c) {
				break
			}
			j++
		} else {
			r, n := utf8.DecodeRuneInString(s[j:])
			if !isLabelRune(r) {
				break
			}
			j += n
		}
	}
	p.emit(tokLabel, j)
	p.prevAtomEnd = j
}

func (p *parser) runeOffset(i int) int { return utf8.RuneCountInString(p.src[:i]) }

// fail returns the first lexical error after the current token, if any,
// and the parse error err otherwise.
func (p *parser) fail(err error) error {
	for p.tok != tokEOF {
		if lerr := p.next(); lerr != nil {
			return lerr
		}
	}
	return err
}

func (p *parser) unexpected() error {
	return fmt.Errorf("regex: unexpected %q at offset %d in %q", p.src[p.start:p.off], p.runeOffset(p.start), p.src)
}

// node returns a fresh node of kind k from the node slab.
func (p *parser) node(k Kind) *Expr {
	if len(p.nodes) == cap(p.nodes) {
		if p.firstNodes < 0 {
			p.firstNodes = len(p.nodes)
		}
		p.nodes = make([]Expr, 0, p.slab)
	}
	p.nodes = p.nodes[:len(p.nodes)+1]
	e := &p.nodes[len(p.nodes)-1]
	*e = Expr{Kind: k} // a reused slab may hold an old node
	return e
}

// children returns an n-element child list from the child-list slab.
// Its capacity is n, so an append to it copies rather than overwriting
// the next list.
func (p *parser) children(n int) []*Expr {
	if cap(p.subs)-len(p.subs) < n {
		if p.firstSubs < 0 {
			p.firstSubs = len(p.subs)
		}
		p.subs = make([]*Expr, 0, max(p.slab, n))
	}
	a := len(p.subs)
	p.subs = p.subs[:a+n]
	return p.subs[a : a+n : a+n]
}

// gatherAbove builds a node of kind k whose children are stack[mark:],
// the highest of height sub, and pops them.
func (p *parser) gatherAbove(k Kind, mark, sub int) (*Expr, error) {
	if err := p.above(sub); err != nil {
		return nil, err
	}
	e := p.node(k)
	e.Subs = p.children(len(p.stack) - mark)
	copy(e.Subs, p.stack[mark:])
	p.stack = p.stack[:mark]
	return e, nil
}

func (p *parser) parseUnion() (*Expr, error) {
	first, err := p.parseConcat()
	if err != nil || p.tok != tokUnion {
		return first, err
	}
	mark := len(p.stack)
	p.stack = append(p.stack, first)
	sub := p.h
	for p.tok == tokUnion {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, e)
		sub = max(sub, p.h)
	}
	return p.gatherAbove(Union, mark, sub)
}

// startsAtom reports whether k can begin an atom, and so continue a
// concatenation.
func startsAtom(k tokKind) bool {
	return k == tokLabel || k == tokLParen || k == tokEps || k == tokEmpty
}

func (p *parser) parseConcat() (*Expr, error) {
	first, err := p.parsePostfix()
	if err != nil || !startsAtom(p.tok) {
		return first, err
	}
	mark := len(p.stack)
	p.stack = append(p.stack, first)
	sub := p.h
	for startsAtom(p.tok) {
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, e)
		sub = max(sub, p.h)
	}
	return p.gatherAbove(Concat, mark, sub)
}

func (p *parser) parsePostfix() (*Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		var k Kind
		switch p.tok {
		case tokStar:
			k = Star
		case tokPlusPost:
			k = Plus
		case tokOpt:
			k = Opt
		default:
			return e, nil
		}
		if err := p.above(p.h); err != nil {
			return nil, err
		}
		u := p.node(k)
		u.Subs = p.children(1)
		u.Subs[0] = e
		e = u
		if err := p.next(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseAtom() (*Expr, error) {
	var e *Expr
	p.h = 0
	switch p.tok {
	case tokLabel:
		e = p.node(Symbol)
		e.Sym = p.src[p.start:p.off]
	case tokEps:
		e = p.node(Epsilon)
	case tokEmpty:
		e = p.node(Empty)
	case tokLParen:
		if p.depth++; p.depth > textio.MaxDepth {
			return nil, p.fail(errTooDeep)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, p.fail(fmt.Errorf("regex: missing ')' in %q", p.src))
		}
		p.depth--
		e = inner
	case tokEOF:
		return nil, p.fail(fmt.Errorf("regex: unexpected end of input in %q", p.src))
	default:
		return nil, p.fail(p.unexpected())
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	return e, nil
}

// ParseDTDContent parses a DTD content model in the XML 1.1 syntax used by
// <!ELEMENT …> declarations: ',' for concatenation, '|' for union, postfix
// '*', '+', '?', parentheses, and the special models EMPTY and ANY over the
// given alphabet of all declared element names. #PCDATA parses as ε, matching
// the paper's abstraction of trees without text nodes (Example 3.1): mixed
// content "(#PCDATA | a | …)*" has the language of its element part
// "(a | …)*", but its syntax keeps the ε member, as "(<eps> + a + …)*".
//
// ANY is translated to (a1 + … + an)* over the supplied alphabet; the paper's
// Section 4.5 discusses ANY as DTD's way to allow arbitrary content.
//
// Like Parse, it refuses parentheses nested deeper than textio.MaxDepth
// and trees higher than that.
func ParseDTDContent(s string, anyAlphabet []string) (*Expr, error) {
	t := strings.TrimSpace(s)
	switch t {
	case "EMPTY":
		return NewEpsilon(), nil
	case "ANY":
		subs := make([]*Expr, 0, len(anyAlphabet))
		for _, a := range anyAlphabet {
			subs = append(subs, NewSymbol(a))
		}
		if len(subs) == 0 {
			return NewEpsilon(), nil
		}
		return NewStar(NewUnion(subs...)), nil
	}
	p := &dtdParser{src: t}
	e, err := p.parseChoice()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("dtd content: trailing input %q", p.src[p.pos:])
	}
	return e, nil
}

type dtdParser struct {
	src   string
	pos   int
	depth int // open parentheses
	h     int // height of the tree last parsed
}

var errDTDTooDeep = fmt.Errorf("dtd content: nesting deeper than %d levels", textio.MaxDepth)

func (p *dtdParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

// #PCDATA members parse as ε and stay in a choice, where structural
// metrics see them; starred mixed content still has the language of its
// element part.
func (p *dtdParser) parseChoice() (*Expr, error) { return p.parseList('|', Union, p.parseSeq) }
func (p *dtdParser) parseSeq() (*Expr, error)    { return p.parseList(',', Concat, p.parseUnit) }

// parseList parses items separated by sep; two or more make a node of
// kind k.
func (p *dtdParser) parseList(sep byte, k Kind, item func() (*Expr, error)) (*Expr, error) {
	first, err := item()
	if err != nil {
		return nil, err
	}
	subs := []*Expr{first}
	sub := p.h
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != sep {
			break
		}
		p.pos++
		e, err := item()
		if err != nil {
			return nil, err
		}
		subs = append(subs, e)
		sub = max(sub, p.h)
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	if err := p.above(sub); err != nil {
		return nil, err
	}
	return &Expr{Kind: k, Subs: subs}, nil
}

func (p *dtdParser) parseUnit() (*Expr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("dtd content: unexpected end of %q", p.src)
	}
	var e *Expr
	p.h = 0
	if p.src[p.pos] == '(' {
		if p.depth++; p.depth > textio.MaxDepth {
			return nil, errDTDTooDeep
		}
		p.pos++
		inner, err := p.parseChoice()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("dtd content: missing ')' in %q", p.src)
		}
		p.pos++
		p.depth--
		e = inner
	} else {
		start := p.pos
		for p.pos < len(p.src) && isDTDNameByte(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return nil, fmt.Errorf("dtd content: invalid character %q in %q", p.src[p.pos], p.src)
		}
		name := p.src[start:p.pos]
		if name == "#PCDATA" {
			e = NewEpsilon() // text content is abstracted away
		} else {
			e = NewSymbol(name)
		}
	}
	// Postfix operator.
	if p.pos < len(p.src) && strings.IndexByte("*+?", p.src[p.pos]) >= 0 {
		if err := p.above(p.h); err != nil {
			return nil, err
		}
		switch p.src[p.pos] {
		case '*':
			e = NewStar(e)
		case '+':
			e = NewPlus(e)
		case '?':
			e = NewOpt(e)
		}
		p.pos++
	}
	return e, nil
}

// above is parser.above for content models.
func (p *dtdParser) above(sub int) error {
	if p.h = sub + 1; p.h > textio.MaxDepth {
		return errDTDTooDeep
	}
	return nil
}

func isDTDNameByte(b byte) bool {
	return b == '#' || b == '_' || b == ':' || b == '-' || b == '.' ||
		(b >= '0' && b <= '9') || (b >= 'A' && b <= 'Z') || (b >= 'a' && b <= 'z')
}
