package dtd

import (
	"fmt"
	"strings"

	"repro/internal/regex"
)

// ParseText parses a DTD from its real-world textual syntax: a sequence of
// <!ELEMENT name contentmodel> declarations (attribute-list and entity
// declarations are recognized and skipped; Sahuguet's study, Section 4.1,
// found that real DTDs are frequently erroneous — the parser therefore
// reports precise errors rather than guessing). The first declared element
// becomes the start label, matching common practice, unless rootName is
// non-empty. ANY content models expand to (a1 + … + an)* over all declared
// element names.
func ParseText(src, rootName string) (*DTD, error) {
	type decl struct{ name, model string }
	var decls []decl
	pos := 0
	for {
		i := strings.Index(src[pos:], "<!")
		if i < 0 {
			break
		}
		pos += i
		end := findDeclEnd(src, pos)
		if end < 0 {
			return nil, fmt.Errorf("dtd: unterminated declaration at offset %d", pos)
		}
		text := src[pos:end]
		pos = end + 1
		switch {
		case strings.HasPrefix(text, "<!ELEMENT"):
			body := strings.TrimSpace(text[len("<!ELEMENT"):])
			sp := strings.IndexAny(body, " \t\n\r")
			if sp < 0 {
				return nil, fmt.Errorf("dtd: malformed element declaration %q", text)
			}
			decls = append(decls, decl{body[:sp], strings.TrimSpace(body[sp:])})
		case strings.HasPrefix(text, "<!ATTLIST"), strings.HasPrefix(text, "<!ENTITY"),
			strings.HasPrefix(text, "<!NOTATION"), strings.HasPrefix(text, "<!--"):
			// skipped: outside the Definition 4.1 abstraction
		default:
			return nil, fmt.Errorf("dtd: unknown declaration %q", firstLine(text))
		}
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	names := make([]string, len(decls))
	for i, dc := range decls {
		names[i] = dc.name
	}
	// Declarations with the same content model text share one expression,
	// parsed once: n ANY declarations then cost one expansion over the n
	// names, not n of them, and Compile builds one matcher for all.
	models := map[string]*regex.Expr{}
	d := New()
	for _, dc := range decls {
		if _, dup := d.Rules[dc.name]; dup {
			return nil, fmt.Errorf("dtd: duplicate declaration of element %s", dc.name)
		}
		e, ok := models[dc.model]
		if !ok {
			var err error
			if e, err = regex.ParseDTDContent(dc.model, names); err != nil {
				return nil, fmt.Errorf("dtd: element %s: %v", dc.name, err)
			}
			models[dc.model] = e
		}
		d.AddRule(dc.name, e)
	}
	if rootName != "" {
		d.AddStart(rootName)
	} else {
		d.AddStart(decls[0].name)
	}
	return d, nil
}

// findDeclEnd finds the '>' closing the declaration starting at pos,
// honoring comments.
func findDeclEnd(src string, pos int) int {
	if strings.HasPrefix(src[pos:], "<!--") {
		j := strings.Index(src[pos:], "-->")
		if j < 0 {
			return -1
		}
		return pos + j + 2
	}
	j := strings.IndexByte(src[pos:], '>')
	if j < 0 {
		return -1
	}
	return pos + j
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
