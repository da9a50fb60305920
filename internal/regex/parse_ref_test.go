package regex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"repro/internal/textio"
)

// refParse is the two-pass parser Parse replaced, kept as the
// differential reference: it lexes the whole input into a token slice
// over a []rune copy, then parses the tokens. Because lexing finishes
// first, a lexical error anywhere beats an earlier parse error; Parse
// must report the same error strings, rune offsets included. Nesting
// past textio.MaxDepth is refused as Parse refuses it: a '(' that opens
// one level too many, or a node one level too high, measured on the
// finished subtree.
func refParse(s string) (*Expr, error) {
	toks, err := refLex(s)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks, src: s}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, fmt.Errorf("regex: unexpected %q at offset %d in %q", p.toks[p.pos].text, p.toks[p.pos].off, s)
	}
	return e, nil
}

type refTokKind int

const (
	refLabel refTokKind = iota
	refLParen
	refRParen
	refUnion    // '+' (infix) or '|'
	refStar     // '*'
	refPlusPost // '+' (postfix)
	refOpt      // '?'
	refEps      // <eps>
	refEmpty    // <empty>
)

type refToken struct {
	kind refTokKind
	text string
	off  int // rune offset
}

func refIsLabelRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		r == '_' || r == ':' || r == '#' || r == '$' || r == '\'' || r == '-'
}

func refLex(s string) ([]refToken, error) {
	var toks []refToken
	rs := []rune(s)
	i := 0
	// prevAtomEnd is the rune index just past the previous atom/')'/postfix
	// token, used to classify '+'.
	prevAtomEnd := -1
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(':
			toks = append(toks, refToken{refLParen, "(", i})
			i++
		case r == ')':
			toks = append(toks, refToken{refRParen, ")", i})
			prevAtomEnd = i + 1
			i++
		case r == '|':
			toks = append(toks, refToken{refUnion, "|", i})
			i++
		case r == '*':
			toks = append(toks, refToken{refStar, "*", i})
			prevAtomEnd = i + 1
			i++
		case r == '?':
			toks = append(toks, refToken{refOpt, "?", i})
			prevAtomEnd = i + 1
			i++
		case r == '+':
			if prevAtomEnd == i {
				toks = append(toks, refToken{refPlusPost, "+", i})
				prevAtomEnd = i + 1
			} else {
				toks = append(toks, refToken{refUnion, "+", i})
			}
			i++
		case r == '<':
			j := i
			for j < len(rs) && rs[j] != '>' {
				j++
			}
			if j == len(rs) {
				return nil, fmt.Errorf("regex: unterminated '<' at offset %d in %q", i, s)
			}
			word := string(rs[i : j+1])
			switch word {
			case "<eps>":
				toks = append(toks, refToken{refEps, word, i})
			case "<empty>":
				toks = append(toks, refToken{refEmpty, word, i})
			default:
				return nil, fmt.Errorf("regex: unknown token %q at offset %d", word, i)
			}
			prevAtomEnd = j + 1
			i = j + 1
		case refIsLabelRune(r):
			j := i
			for j < len(rs) && refIsLabelRune(rs[j]) {
				j++
			}
			toks = append(toks, refToken{refLabel, string(rs[i:j]), i})
			prevAtomEnd = j
			i = j
		default:
			return nil, fmt.Errorf("regex: invalid character %q at offset %d in %q", r, i, s)
		}
	}
	return toks, nil
}

type refParser struct {
	toks  []refToken
	pos   int
	src   string
	depth int // open parentheses
}

// refHeight returns the height of e: 0 for a leaf, one more than its
// highest child otherwise.
func refHeight(e *Expr) int {
	h := 0
	for _, s := range e.Subs {
		h = max(h, refHeight(s)+1)
	}
	return h
}

// refCheck returns e, or the nesting error when e is too high.
func refCheck(e *Expr) (*Expr, error) {
	if refHeight(e) > textio.MaxDepth {
		return nil, fmt.Errorf("regex: nesting deeper than %d levels", textio.MaxDepth)
	}
	return e, nil
}

func (p *refParser) peek() (refToken, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return refToken{}, false
}

func (p *refParser) parseUnion() (*Expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	subs := []*Expr{first}
	for {
		t, ok := p.peek()
		if !ok || t.kind != refUnion {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, next)
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	return refCheck(&Expr{Kind: Union, Subs: subs})
}

func (p *refParser) parseConcat() (*Expr, error) {
	first, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	subs := []*Expr{first}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		if t.kind != refLabel && t.kind != refLParen && t.kind != refEps && t.kind != refEmpty {
			break
		}
		next, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		subs = append(subs, next)
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	return refCheck(&Expr{Kind: Concat, Subs: subs})
}

func (p *refParser) parsePostfix() (*Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		switch t.kind {
		case refStar:
			e = NewStar(e)
		case refPlusPost:
			e = NewPlus(e)
		case refOpt:
			e = NewOpt(e)
		default:
			return e, nil
		}
		if e, err = refCheck(e); err != nil {
			return nil, err
		}
		p.pos++
	}
	return e, nil
}

func (p *refParser) parseAtom() (*Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("regex: unexpected end of input in %q", p.src)
	}
	switch t.kind {
	case refLabel:
		p.pos++
		return NewSymbol(t.text), nil
	case refEps:
		p.pos++
		return NewEpsilon(), nil
	case refEmpty:
		p.pos++
		return NewEmpty(), nil
	case refLParen:
		if p.depth++; p.depth > textio.MaxDepth {
			return nil, fmt.Errorf("regex: nesting deeper than %d levels", textio.MaxDepth)
		}
		p.pos++
		e, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		t, ok := p.peek()
		if !ok || t.kind != refRParen {
			return nil, fmt.Errorf("regex: missing ')' in %q", p.src)
		}
		p.pos++
		p.depth--
		return e, nil
	}
	return nil, fmt.Errorf("regex: unexpected %q at offset %d in %q", t.text, t.off, p.src)
}

// refFragments are the pieces TestParseMatchesReference splices into
// inputs: every token, both '+' spellings, whitespace the lexer must
// decode (NBSP, NEL, em space), non-ASCII letters, and each kind of
// lexical error, invalid UTF-8 included.
var refFragments = []string{
	"a", "b", "é", "名前", "x1", "it's", "_:#$-", "(", ")", "+", "|", "*", "?",
	" ", "  ", "\t", "\n", "\u00a0", "\u0085", "\u2003",
	"<eps>", "<empty>", "<", ">", "<bogus>", "<eps", "<é>", "\xff", "\xe2\x82",
	"&", ".", "×", "+a", "a+", "a+b", ")+", "*+", "a + b",
}

var refSpaces = []string{" ", " ", " ", "\t", "  ", "\u00a0", "\u2003", "\n", ""}

// refInput returns the i-th input of the differential check: a
// generated expression respelled with random whitespace and union
// spellings, that expression mutated by random splices, or a random
// run of fragments.
func refInput(r *rand.Rand, g *Gen, i int) string {
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	if i%3 == 2 {
		var b strings.Builder
		for n := 1 + r.Intn(12); n > 0; n-- {
			b.WriteString(pick(refFragments))
		}
		return b.String()
	}
	var b strings.Builder
	for _, c := range g.Random(r).String() {
		switch {
		case c == ' ':
			b.WriteString(pick(refSpaces))
		case c == '+' && r.Intn(3) == 0:
			b.WriteByte('|')
		default:
			b.WriteRune(c)
		}
	}
	s := b.String()
	if r.Intn(4) == 0 {
		s = "(" + s + ")" + pick(refSpaces) + pick([]string{"*", "+", "?", "", "a"})
	}
	if i%3 == 0 {
		return s
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		at := r.Intn(len(s) + 1)
		switch r.Intn(3) {
		case 0: // splice a fragment in, possibly inside a UTF-8 sequence
			s = s[:at] + pick(refFragments) + s[at:]
		case 1: // cut a few bytes out
			s = s[:at] + s[min(len(s), at+1+r.Intn(3)):]
		default: // overwrite one byte
			if at < len(s) {
				s = s[:at] + pick(refFragments)[:1] + s[at+1:]
			}
		}
	}
	return s
}

// checkParseMatchesReference fails t unless Parse and refParse agree
// on s: the same error string, or Equal trees.
func checkParseMatchesReference(t *testing.T, s string) (*Expr, error) {
	t.Helper()
	want, wantErr := refParse(s)
	got, err := Parse(s)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Parse(%q) error = %v, reference error = %v", s, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("Parse(%q) error\n got %v\nwant %v", s, err, wantErr)
	case err == nil && !got.Equal(want):
		t.Fatalf("Parse(%q) = %v, reference = %v", s, got, want)
	}
	return got, err
}

// TestParseMatchesReference runs Parse and refParse on 200k generated
// and mutated inputs and requires identical trees and error strings.
// It also requires every error message and the postfix '+' to occur,
// so a change to the generator cannot quietly lose coverage.
func TestParseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	g := DefaultGen([]string{"a", "b", "é", "名前", "x1", "it's", "a-b"})
	seen := map[string]int{}
	for i := 0; i < 200_000; i++ {
		e, err := checkParseMatchesReference(t, refInput(r, g, i))
		if err != nil {
			msg := err.Error() // keep the words before the first quote
			seen[msg[:strings.IndexAny(msg, `'"`)]]++
			continue
		}
		seen["ok"]++
		e.Walk(func(x *Expr) {
			if x.Kind == Plus {
				seen["postfix +"]++
			}
		})
	}
	for _, k := range []string{
		"ok", "postfix +",
		"regex: invalid character ", "regex: unknown token ", "regex: unterminated ",
		"regex: unexpected end of input in ", "regex: unexpected ", "regex: missing ",
	} {
		if seen[k] == 0 {
			t.Errorf("no input produced %q; saw %v", k, seen)
		}
	}
}
