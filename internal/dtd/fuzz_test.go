package dtd

import (
	"strings"
	"testing"

	"repro/internal/regex"
	"repro/internal/textio"
)

// FuzzParseText asserts that ParseText never panics, and that every
// content model of a DTD it accepts is at most textio.MaxDepth high, so
// the passes over the models cannot recurse deeper.
func FuzzParseText(f *testing.F) {
	f.Add("<!ELEMENT r (a, b*)> <!ELEMENT a EMPTY> <!ELEMENT b (#PCDATA)>", "")
	f.Add("<!-- c --><!ELEMENT r (a|b)+><!ATTLIST r x CDATA #IMPLIED><!ELEMENT a ANY><!ELEMENT b EMPTY>", "r")
	f.Add("<!ELEMENT a (b,>", "")
	f.Add("<!ELEMENT r ((a?)*)>", "a")
	// one level past the limit: nested parentheses, and lists stacked
	// three levels per parenthesis
	f.Add("<!ELEMENT r "+strings.Repeat("(", 1001)+"a"+strings.Repeat(")", 1001)+">", "")
	f.Add("<!ELEMENT r "+strings.Repeat("(b|b,", 334)+"a"+strings.Repeat(")*", 334)+">", "")
	f.Fuzz(func(t *testing.T, src, root string) {
		d, err := ParseText(src, root)
		if err != nil {
			return
		}
		for a, e := range d.Rules {
			if h := height(e); h > textio.MaxDepth {
				t.Fatalf("ParseText(%q) accepted a content model for %s of height %d", src, a, h)
			}
		}
	})
}

// height returns the height of e: 0 for a leaf.
func height(e *regex.Expr) int {
	h := 0
	for _, s := range e.Subs {
		h = max(h, height(s)+1)
	}
	return h
}
