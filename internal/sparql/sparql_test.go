package sparql

import (
	"strings"
	"testing"

	"repro/internal/textio"
)

// wikidataExample is the paper's example query (Section 9, "Locations of
// archaeological sites").
const wikidataExample = `SELECT ?label ?coord ?subj
WHERE { ?subj wdt:P31/wdt:P279* wd:Q839954 .
        ?subj wdt:P625 ?coord .
        ?subj rdfs:label ?label FILTER(lang(?label)="en") }`

func TestParseWikidataExample(t *testing.T) {
	q, err := Parse(wikidataExample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Type != Select {
		t.Errorf("type = %v", q.Type)
	}
	if len(q.Items) != 3 {
		t.Errorf("items = %v", q.Items)
	}
	if got := q.TripleCount(); got != 3 {
		t.Errorf("TripleCount = %d, want 3", got)
	}
	pps := q.PropertyPaths()
	if len(pps) != 1 {
		t.Fatalf("property paths = %d, want 1", len(pps))
	}
	if got := PathString(pps[0]); got != "wdt:P31/wdt:P279*" {
		t.Errorf("path = %q", got)
	}
	f := q.Features()
	for _, want := range []Feature{FFilter, FAnd, FPropertyPath} {
		if !f[want] {
			t.Errorf("feature %s missing", want)
		}
	}
	for _, not := range []Feature{FOptional, FUnion, FDistinct, FLimit, FService} {
		if f[not] {
			t.Errorf("feature %s should be absent", not)
		}
	}
	if !q.IsC2RPQF() {
		t.Error("example query is a C2RPQ+F query")
	}
	if q.IsCQF() {
		t.Error("example query uses property paths, not CQ+F")
	}
}

func TestParseForms(t *testing.T) {
	good := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"SELECT DISTINCT ?s WHERE { ?s a foaf:Person } LIMIT 10 OFFSET 5",
		"ASK { ?s ?p ?o }",
		"ASK WHERE { ?s ?p ?o . ?o ?q ?r }",
		"CONSTRUCT { ?s a foaf:Agent } WHERE { ?s a foaf:Person }",
		"DESCRIBE ?x",
		"DESCRIBE <http://example.org/thing>",
		"PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?x foaf:name ?n }",
		"SELECT ?s WHERE { ?s ?p ?o FILTER(?o > 3) }",
		"SELECT ?s WHERE { { ?s a :A } UNION { ?s a :B } }",
		"SELECT ?s WHERE { ?s a :A OPTIONAL { ?s :name ?n } }",
		"SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }",
		"SELECT ?s WHERE { ?s ?p ?o . BIND(?o + 1 AS ?x) }",
		"SELECT ?s WHERE { VALUES ?s { :a :b :c } ?s ?p ?o }",
		"SELECT ?s WHERE { SERVICE wikibase:label { ?s ?p ?o } }",
		"SELECT ?s WHERE { ?s ?p ?o MINUS { ?s a :Bad } }",
		"SELECT ?s WHERE { ?s ?p ?o FILTER NOT EXISTS { ?s a :Bad } }",
		"SELECT ?s WHERE { ?s ?p ?o FILTER EXISTS { ?s a :Good } }",
		"SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(*) > 2) ORDER BY ?s",
		"SELECT ?s WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 } }",
		"SELECT ?s WHERE { ?s :p ?a ; :q ?b . }",
		"SELECT ?s WHERE { ?s :p ?a , ?b }",
		"SELECT ?s WHERE { ?s !(rdf:type|^rdfs:label) ?o }",
		"SELECT ?s WHERE { ?s (wdt:P31|wdt:P279)+ ?o }",
		"SELECT ?s WHERE { ?s ?p \"lit\"^^xsd:string }",
		"SELECT ?s WHERE { ?s ?p 'x'@en }",
		"SELECT ?s WHERE { ?s ?p 3.14 }",
		"SELECT ?s WHERE { ?s ?p true }",
		"SELECT ?s WHERE { _:b ?p ?o }",
		"SELECT ?s WHERE { ?s ?p ?o } VALUES ?s { :a }",
		"# comment\nSELECT ?s WHERE { ?s ?p ?o }",
		"SELECT ?s WHERE { ?s a/:b* ?o }",
	}
	for _, src := range good {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	bad := []string{
		"",
		"SELECT WHERE { ?s ?p ?o }",
		"SELECT ?s { ?s ?p }",
		"SELECT ?s WHERE { ?s ?p ?o",
		"FOO ?s WHERE { ?s ?p ?o }",
		"SELECT ?s WHERE { ?s ?p ?o } LIMIT x",
		"SELECT ?s WHERE { FILTER }",
		"SELECT ?s WHERE { \"lit\" ?p ?o }",
		"SELECT ?s WHERE { ?s ?p ?o } GROUP BY",
		"SELECT ?s WHERE { OPTIONAL ?x }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestTripleCountAbbreviations(t *testing.T) {
	q := MustParse("SELECT * WHERE { ?s :p ?a ; :q ?b , ?c . ?x :r ?y }")
	if got := q.TripleCount(); got != 4 {
		t.Errorf("TripleCount = %d, want 4", got)
	}
}

func TestOperatorSets(t *testing.T) {
	cases := []struct {
		src  string
		name string
	}{
		{"SELECT * WHERE { ?s ?p ?o }", "none"},
		{"SELECT * WHERE { ?s ?p ?o . ?o ?q ?r }", "And"},
		{"SELECT * WHERE { ?s ?p ?o FILTER(?o > 1) }", "Filter"},
		{"SELECT * WHERE { ?s ?p ?o . ?o ?q ?r FILTER(?r > 1) }", "And, Filter"},
		{"SELECT * WHERE { ?s :a* ?o }", "2RPQ"},
		{"SELECT * WHERE { ?s :a* ?o . ?o ?q ?r }", "And, 2RPQ"},
		{"SELECT * WHERE { ?s :a* ?o FILTER(?o != ?s) }", "Filter, 2RPQ"},
		{"SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s :n ?n } }", "beyond"},
		{"SELECT * WHERE { { ?s a :A } UNION { ?s a :B } }", "beyond"},
	}
	for _, c := range cases {
		q := MustParse(c.src)
		if got := q.Operators().Name(); got != c.name {
			t.Errorf("Operators(%q) = %q, want %q", c.src, got, c.name)
		}
	}
	// Modifiers do not affect the pattern's operator set (Table 4 counts
	// queries whose BODY is conjunctive even with aggregation on top).
	q := MustParse("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s")
	if !q.IsCQ() {
		t.Error("aggregation should not affect IsCQ")
	}
}

func TestSafeAndSimpleFilters(t *testing.T) {
	getFilter := func(src string) *Expr {
		q := MustParse(src)
		var e *Expr
		q.Walk(func(p *Pattern) {
			if p.Kind == PFilter {
				e = p.Expr
			}
		})
		if e == nil {
			t.Fatalf("no filter in %q", src)
		}
		return e
	}
	safe := []string{
		"SELECT * WHERE { ?s ?p ?o FILTER(?o > 3) }",
		"SELECT * WHERE { ?s ?p ?o FILTER(lang(?o) = \"en\") }",
		"SELECT * WHERE { ?s ?p ?o FILTER(?s = ?o) }",
	}
	for _, src := range safe {
		if !getFilter(src).IsSafeFilter() {
			t.Errorf("filter of %q should be safe", src)
		}
	}
	unsafeButSimple := []string{
		"SELECT * WHERE { ?s ?p ?o FILTER(?s != ?o) }",
		"SELECT * WHERE { ?s ?p ?o FILTER(?s < ?o) }",
	}
	for _, src := range unsafeButSimple {
		e := getFilter(src)
		if e.IsSafeFilter() {
			t.Errorf("filter of %q should not be safe", src)
		}
		if !e.IsSimpleFilter() {
			t.Errorf("filter of %q should be simple", src)
		}
	}
	ternary := getFilter("SELECT * WHERE { ?a ?b ?c FILTER(?a = ?b && ?b = ?c) }")
	if ternary.IsSimpleFilter() {
		t.Error("three-variable filter should not be simple")
	}
}

func TestCanonicalDedup(t *testing.T) {
	a := MustParse("SELECT ?s WHERE { ?s ?p ?o }")
	b := MustParse("  SELECT   ?s\nWHERE {\n  ?s ?p ?o .\n}")
	if a.Canonical() != b.Canonical() {
		t.Errorf("whitespace variants should dedup:\n%q\n%q", a.Canonical(), b.Canonical())
	}
	c := MustParse("SELECT ?s WHERE { ?s ?p ?x }")
	if a.Canonical() == c.Canonical() {
		t.Error("different queries should not dedup")
	}
	// prefix expansion
	d := MustParse("PREFIX f: <http://x/> SELECT ?s WHERE { ?s f:p ?o }")
	e := MustParse("PREFIX g: <http://x/> SELECT ?s WHERE { ?s g:p ?o }")
	if d.Canonical() != e.Canonical() {
		t.Errorf("prefix variants should dedup:\n%q\n%q", d.Canonical(), e.Canonical())
	}
}

// TestCanonicalPathPrefixes: a property path's IRIs are expanded as a
// plain predicate's are, under ^ and in negated sets too, so a path
// dedups with its full-IRI spelling and not with the same names bound
// to another namespace.
func TestCanonicalPathPrefixes(t *testing.T) {
	const body = " SELECT * WHERE { ?x ex:p/^ex:q*|!(ex:r|^<http://a/s>) ?y }"
	a := MustParse("PREFIX ex: <http://a/>" + body)
	b := MustParse("PREFIX ex: <http://b/>" + body)
	full := MustParse("SELECT * WHERE { ?x <http://a/p>/^<http://a/q>*|!(<http://a/r>|^<http://a/s>) ?y }")
	const want = "SELECT * WHERE { ?x <http://a/p>/^<http://a/q>*|!(<http://a/r>|^<http://a/s>) ?y . } "
	if got := a.Canonical(); got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
	if a.Canonical() != full.Canonical() {
		t.Errorf("prefixed and full-IRI paths should dedup:\n%q\n%q", a.Canonical(), full.Canonical())
	}
	if a.Canonical() == b.Canonical() {
		t.Errorf("paths under different namespaces should not dedup: %q", a.Canonical())
	}
}

// TestCanonicalPushesInverse: ^ over a compound path canonicalizes to
// its pushed-down form, and a redundant group is flattened.
func TestCanonicalPushesInverse(t *testing.T) {
	for _, c := range [][2]string{
		{"ASK { ?x ^(ex:a/ex:b) ?y }", "ASK { ?x ^ex:b/^ex:a ?y }"},
		{"ASK { ?x ^!(ex:a|^ex:b) ?y }", "ASK { ?x !(ex:b|^ex:a) ?y }"},
		{"ASK { ?x (ex:a/ex:b)/ex:c ?y }", "ASK { ?x ex:a/ex:b/ex:c ?y }"},
		{"ASK { ?x (ex:a|ex:b)|ex:c ?y }", "ASK { ?x ex:a|(ex:b|ex:c) ?y }"},
	} {
		if a, b := MustParse(c[0]).Canonical(), MustParse(c[1]).Canonical(); a != b {
			t.Errorf("%s and %s should dedup:\n%q\n%q", c[0], c[1], a, b)
		}
	}
}

func TestAggregateFeatures(t *testing.T) {
	q := MustParse("SELECT (AVG(?x) AS ?a) (SUM(?y) AS ?s) WHERE { ?s :v ?x ; :w ?y } GROUP BY ?s HAVING (MAX(?x) > 2)")
	f := q.Features()
	for _, want := range []Feature{FAvg, FSum, FMax, FGroupBy, FHaving} {
		if !f[want] {
			t.Errorf("missing feature %s", want)
		}
	}
}

func TestServiceFeature(t *testing.T) {
	// The wikibase:label service is the most common SERVICE usage in
	// Wikidata logs (Section 9.4).
	q := MustParse(`SELECT ?item ?itemLabel WHERE {
		?item wdt:P31 wd:Q146 .
		SERVICE wikibase:label { bd:serviceParam wikibase:language "en" }
	}`)
	if !q.Features()[FService] {
		t.Error("SERVICE feature missing")
	}
	if q.IsC2RPQF() {
		t.Error("SERVICE is beyond C2RPQ+F")
	}
}

func TestDescribeWithoutPattern(t *testing.T) {
	q := MustParse("DESCRIBE <http://ex.org/e>")
	if q.Where != nil {
		t.Error("DESCRIBE without pattern should have nil Where")
	}
	if q.TripleCount() != 0 {
		t.Error("no triples expected")
	}
}

func TestCanonicalStable(t *testing.T) {
	src := wikidataExample
	c1 := MustParse(src).Canonical()
	c2 := MustParse(src).Canonical()
	if c1 != c2 {
		t.Error("Canonical must be deterministic")
	}
	if !strings.Contains(c1, "wdt:P31/wdt:P279*") {
		t.Errorf("canonical lost the property path: %q", c1)
	}
}

// TestNonASCIINames: names are read as UTF-8 runes, so non-ASCII local
// names, paths over them, variables and language tags parse, and bytes
// that are not UTF-8 are still rejected.
func TestNonASCIINames(t *testing.T) {
	for _, c := range []struct{ src, path string }{
		{"SELECT * WHERE { ?x ex:café ?y }", ""},
		{"SELECT * WHERE { ?x ex:café* ?y }", "ex:café*"},
		{"SELECT * WHERE { ?x ex:p ?é }", ""},
		{"SELECT * WHERE { ?x ex:p :été }", ""},
		{"SELECT * WHERE { _:bé ex:p \"x\"@fr-ça }", ""},
	} {
		q, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		pps := q.PropertyPaths()
		if c.path == "" && len(pps) != 0 || c.path != "" && (len(pps) != 1 || PathString(pps[0]) != c.path) {
			t.Errorf("Parse(%q) paths = %v, want %q", c.src, pps, c.path)
		}
	}
	if q := MustParse("SELECT ?é WHERE { ?é ex:p ?y }"); q.Items[0].Var != "é" {
		t.Errorf("variable = %q, want é", q.Items[0].Var)
	}
	for _, bad := range []string{
		"SELECT * WHERE { ?x ex:caf\xe9 ?y }",
		"SELECT * WHERE { ?x ex:\xaa ?y }",
		"SELECT * WHERE { ?x ex:p ?\xc3 }",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted invalid UTF-8", bad)
		}
	}
}

// TestKeywordsFoldASCIIOnly checks that keywords match case-insensitively
// in ASCII only. strings.ToUpper maps ſ (U+017F) to S and ı (U+0131) to
// I, so a Unicode fold read ſelect as SELECT and lımıt as LIMIT, and
// both deduplicated with the ASCII queries.
func TestKeywordsFoldASCIIOnly(t *testing.T) {
	for _, src := range []string{
		"ſelect * where { ?s ?p ?o }",
		"SELECT * WHERE { ?s ?p ?o } lımıt 5",
		"SELECT * WHERE { ?s ?p ?o OPTıONAL { ?o ?q ?r } }",
	} {
		if q, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", src, q.Canonical())
		}
	}
	q := MustParse("SELECT * WHERE { ?s ?p ?o FILTER(ſum(?o) > 1) }")
	if got := q.Canonical(); !strings.Contains(got, "ſUM(") {
		t.Errorf("Canonical = %q, want the function ſUM, not SUM", got)
	}
	if q.Features()[FSum] {
		t.Error("ſum counted as the SUM aggregate")
	}
	want := MustParse("SELECT * WHERE { ?s ?p ?o } LIMIT 5").Canonical()
	if got := MustParse("sElEcT * wHeRe { ?s ?p ?o } lImIt 5").Canonical(); got != want {
		t.Errorf("mixed-case ASCII keywords: %q, want %q", got, want)
	}
}

// TestNestingLimit checks that groups, expressions and property paths
// nested past textio.MaxDepth are a parse error, the recursion never
// getting deeper than the limit.
func TestNestingLimit(t *testing.T) {
	nest := func(open, inner, close string, n int) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	for _, c := range []struct {
		name string
		src  func(n int) string
	}{
		{"groups", func(n int) string { return "SELECT * WHERE " + nest("{", "?s ?p ?o", "}", n) }},
		{"expressions", func(n int) string { return "SELECT * WHERE { ?s ?p ?o FILTER" + nest("(", "?o", ")", n) + " }" }},
		{"negations", func(n int) string { return "SELECT * WHERE { ?s ?p ?o FILTER(" + strings.Repeat("!", n) + "?o) }" }},
		{"paths", func(n int) string { return "SELECT * WHERE { ?s " + nest("(", "ex:p", ")", n) + " ?o }" }},
		{"inverses", func(n int) string { return "SELECT * WHERE { ?s " + strings.Repeat("^ ", n) + "ex:p ?o }" }},
	} {
		if _, err := Parse(c.src(10)); err != nil {
			t.Errorf("%s: 10 levels: %v", c.name, err)
		}
		_, err := Parse(c.src(textio.MaxDepth + 1))
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than 1000 levels") {
			t.Errorf("%s: %d levels: err = %v", c.name, textio.MaxDepth+1, err)
		}
		if msg := diffRef(c.src(textio.MaxDepth + 1)); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
	}
	if _, err := ParsePath(strings.Repeat("(", 5000) + "ex:p" + strings.Repeat(")", 5000)); err == nil {
		t.Error("ParsePath accepted 5000 nested parentheses")
	}
	// Trees as high as their operator runs: modifier runs, operator
	// chains, runs stacked across parentheses, and a list above a
	// full-height item, each at the limit and one level past it. The
	// reference parser must agree on both.
	const limit = textio.MaxDepth
	stars := func(n int) string { return strings.Repeat("*", n) }
	plus1 := func(n int) string { return strings.Repeat("+1", n) }
	filter := func(e string) string { return "SELECT * WHERE { ?s ?p ?o FILTER(" + e + ") }" }
	for _, c := range []struct {
		name string
		src  func(n int) string
		cap  int // the highest n that parses
	}{
		{"modifier run", func(n int) string { return "SELECT * WHERE { ?x <http://x/p>" + stars(n) + " ?y }" }, limit},
		{"stacked modifier runs", func(n int) string { return "SELECT * WHERE { ?x (ex:p" + stars(n) + ")" + stars(limit/2) + " ?y }" }, limit / 2},
		{"sequence above a run", func(n int) string { return "SELECT * WHERE { ?x ex:p" + stars(n) + "/ex:q ?y }" }, limit - 1},
		{"arithmetic chain", func(n int) string { return filter("?o" + plus1(n)) }, limit},
		{"stacked arithmetic chains", func(n int) string { return filter("(?o" + plus1(n) + ")" + plus1(limit/2)) }, limit / 2},
		{"|| chain", func(n int) string { return filter("?o" + strings.Repeat(" || ?o", n)) }, limit},
		{"&& chain under a call", func(n int) string { return filter("BOUND(?o)" + strings.Repeat(" && STR(?o)", n)) }, limit - 1},
		{"comparison above a chain", func(n int) string { return filter("?o" + plus1(n) + " = 1") }, limit - 1},
	} {
		for _, n := range []int{c.cap, c.cap + 1} {
			src := c.src(n)
			if msg := diffRef(src); msg != "" {
				t.Errorf("%s: %d: %s", c.name, n, msg)
			}
			_, err := Parse(src)
			if tooDeep := err != nil && strings.Contains(err.Error(), "nesting deeper than 1000 levels"); tooDeep != (n > c.cap) || !tooDeep && err != nil {
				t.Errorf("%s: %d: err = %v", c.name, n, err)
			}
		}
	}
}

// TestParseAllocs pins the allocations of one Parse of a DBpedia17-shaped
// query at 7: the parser, the Query, its projection, two chunks of
// patterns (the first sized from the text, the second for the fifth
// pattern) and one of child pointers; 31 before the scanner read tokens
// from the text in place and nodes came from slabs.
func TestParseAllocs(t *testing.T) {
	const q = "SELECT DISTINCT ?v0 ?v1 ?v2 WHERE { ?v0 foaf:homepage ?v1 . ?v1 dbo:birthPlace ?v2 . ?v2 foaf:homepage ?v3 . ?v3 dbo:birthPlace ?v4 . }"
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per Parse", allocs)
	if allocs > 7 {
		t.Errorf("%v allocations per Parse, want ≤ 7", allocs)
	}
}

// TestReadPathSymbol reads back every symbol form the parser writes,
// negated sets under ^ included, and pins that reading allocates
// nothing.
func TestReadPathSymbol(t *testing.T) {
	read := func(sym string) string {
		s := ReadPathSymbol(sym)
		var b strings.Builder
		if s.Negated {
			b.WriteString("not ")
		}
		for iri, inverse, ok := s.Next(); ok; iri, inverse, ok = s.Next() {
			if inverse {
				b.WriteString("inv ")
			}
			b.WriteString(iri + ";")
		}
		return b.String()
	}
	for path, want := range map[string]string{
		"ex:p":               "ex:p;",
		"^<http://x/p>":      "inv <http://x/p>;",
		"^ ^ex:p":            "ex:p;",
		"!ex:p":              "not ex:p;",
		"!(ex:q|^ex:r|ex:p)": "not ex:p;ex:q;inv ex:r;",
		"^!(ex:p|^ex:q)":     "not ex:q;inv ex:p;",
	} {
		e := MustParsePath(path)
		if got := read(e.Sym); got != want {
			t.Errorf("%s: symbol %q reads as %q, want %q", path, e.Sym, got, want)
		}
	}
	sym := MustParsePath("!(ex:p|^ex:q)").Sym
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		s := ReadPathSymbol(sym)
		for _, _, ok := s.Next(); ok; _, _, ok = s.Next() {
			n++
		}
	})
	if allocs != 0 || n != 2*101 {
		t.Errorf("%v allocations and %d members in 101 reads, want 0 and 202", allocs, n)
	}
}
