package sparql

import (
	"strings"
	"testing"
)

// FuzzParse asserts the SPARQL parser never panics on arbitrary input,
// agrees with the two-pass reference parser (diffRef), and that every
// accepted query supports the analysis surface the log studies rely on:
// Canonical is deterministic, and the feature/classification battery
// runs without panicking, and every property path's rendering parses
// back to the same expression.
func FuzzParse(f *testing.F) {
	f.Add("SELECT * WHERE { ?s ?p ?o . }")
	f.Add("SELECT DISTINCT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q5 . FILTER(?s != wd:Q1) }")
	f.Add("ASK { { ?s ex:p ?o } UNION { ?s ex:q ?o } OPTIONAL { ?o ex:r ?x } }")
	f.Add("SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?y } GROUP BY ?p HAVING (COUNT(?x) > 1) ORDER BY ?n LIMIT 5")
	f.Add("PREFIX f: <http://x/> DESCRIBE f:e")
	f.Add("SELECT * WHERE { ?s !(ex:p|^ex:q) ?o }")
	f.Add("SELECT * WHERE { ?s ^(ex:p/(ex:q|^ex:r)*)/^!(ex:p) ?o }")
	f.Add("SELECT * WHERE { ?x p:a*|p:b ?y }")
	f.Add("SELECT * WHERE { ?x ex:café/ex:b* ?y }")
	// [] blank nodes are named by their token index
	f.Add("SELECT * WHERE { [] ex:p [] . ?s ex:q [] }")
	// a parse error, then a lexical error later in the text: the lexical
	// error wins
	f.Add("SELECT * WHERE { ?s ?p } ?o % }")
	f.Add("sElEcT DiStInCt ?s wHeRe { ?s ?p ?o fIlTeR(lAnG(?o) = 'en') } LiMiT 3")
	f.Add("SELECT ?ñame WHERE { ?ñame ex:名前 \"日本\"@ja . ?ñame ſum ?x }")
	// one level past textio.MaxDepth: nested groups, a modifier run, an
	// operator chain
	f.Add("SELECT * WHERE " + strings.Repeat("{", 1001) + "?s ?p ?o" + strings.Repeat("}", 1001))
	f.Add("SELECT * WHERE { ?x ex:p" + strings.Repeat("*", 1001) + " ?y }")
	f.Add("SELECT * WHERE { ?s ?p ?o FILTER(?o" + strings.Repeat("+1", 1001) + ") }")
	f.Fuzz(func(t *testing.T, src string) {
		if msg := diffRef(src); msg != "" {
			t.Fatal(msg)
		}
		q, err := Parse(src)
		if err != nil {
			return
		}
		c1 := q.Canonical()
		q2, err := Parse(src)
		if err != nil {
			t.Fatalf("second Parse of accepted input %q failed: %v", src, err)
		}
		if c2 := q2.Canonical(); c1 != c2 {
			t.Fatalf("Canonical nondeterministic for %q:\n%q\n%q", src, c1, c2)
		}
		// the analysis battery must tolerate every parseable query
		q.Features()
		q.Operators()
		q.TripleCount()
		for _, pp := range q.PropertyPaths() {
			s := PathString(pp)
			back, err := ParsePath(s)
			if err != nil {
				t.Fatalf("path %q of %q does not parse: %v", s, src, err)
			}
			if !back.Equal(pp) {
				t.Fatalf("path %q of %q parses back as %q", s, src, PathString(back))
			}
		}
		q.IsCQ()
		q.IsCQF()
		q.IsC2RPQF()
		q.Walk(func(*Pattern) {})
	})
}
