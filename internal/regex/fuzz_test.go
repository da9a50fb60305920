package regex

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser never panics on arbitrary input, that it
// agrees with refParse (the same tree or the same error string), and
// that accepted expressions survive a String/Parse round-trip: re-parsing
// the printed form must succeed and print identically (String is a
// fixpoint). ParseInto parses every input into one Slabs that earlier
// inputs left dirty, and must print what Parse prints or fail with the
// same error.
func FuzzParse(f *testing.F) {
	var sl Slabs
	f.Add("(a b* + c)+")
	f.Add("a? (b + ()) c*")
	f.Add("((a))")
	f.Add("a +")
	f.Add("∅")
	f.Add("a b c d e f g h + i*")
	f.Add("a)$")
	f.Add("a)&") // the parse error at ')' comes first; the lexical one at '&' wins
	f.Add("(a b <eps\xff")
	// one level past textio.MaxDepth: parentheses, a postfix run
	f.Add(strings.Repeat("(", 1001) + "a" + strings.Repeat(")", 1001))
	f.Add("a" + strings.Repeat("*", 1001))
	f.Fuzz(func(t *testing.T, src string) {
		e, err := checkParseMatchesReference(t, src)
		into, intoErr := ParseInto(src, &sl)
		switch {
		case (err == nil) != (intoErr == nil):
			t.Fatalf("ParseInto(%q) error = %v, Parse error = %v", src, intoErr, err)
		case err != nil && intoErr.Error() != err.Error():
			t.Fatalf("ParseInto(%q) error\n got %v\nwant %v", src, intoErr, err)
		case err == nil && into.String() != e.String():
			t.Fatalf("ParseInto(%q) = %q, Parse = %q", src, into, e)
		}
		if err != nil {
			return
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) ok but re-parse of String %q failed: %v", src, printed, err)
		}
		if got := e2.String(); got != printed {
			t.Fatalf("String not a fixpoint: %q -> %q -> %q", src, printed, got)
		}
	})
}
