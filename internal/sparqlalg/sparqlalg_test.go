package sparqlalg

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func testGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.Add("ex:alice", "foaf:knows", "ex:bob")
	g.Add("ex:bob", "foaf:knows", "ex:carol")
	g.Add("ex:alice", "foaf:name", "Alice")
	g.Add("ex:bob", "foaf:name", "Bob")
	g.Add("ex:alice", "foaf:age", "30")
	g.Add("site1", "wdt:P31", "cls")
	g.Add("cls", "wdt:P279", "wd:Q839954")
	return g
}

func TestEvalBGP(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT ?x ?y WHERE { ?x foaf:knows ?y }")
	sols, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("got %d solutions: %v", len(sols), sols)
	}
	// join
	q2 := sparql.MustParse("SELECT ?n WHERE { ?x foaf:knows ?y . ?y foaf:name ?n }")
	sols2, err := Eval(g, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols2) != 1 || sols2[0]["n"] != "Bob" {
		t.Fatalf("join = %v", sols2)
	}
}

func TestEvalOptionalSemantics(t *testing.T) {
	g := testGraph()
	// carol has no name: OPTIONAL keeps the row unbound.
	q := sparql.MustParse("SELECT ?y ?n WHERE { ?x foaf:knows ?y OPTIONAL { ?y foaf:name ?n } }")
	sols, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("solutions = %v", sols)
	}
	foundUnbound := false
	for _, s := range sols {
		if s["y"] == "ex:carol" {
			if _, ok := s["n"]; ok {
				t.Error("carol should have unbound ?n")
			}
			foundUnbound = true
		}
	}
	if !foundUnbound {
		t.Error("missing carol row")
	}
}

func TestEvalFilterUnionAsk(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT ?x WHERE { ?x foaf:age ?a FILTER(?a > 25) }")
	sols, _ := Eval(g, q)
	if len(sols) != 1 || sols[0]["x"] != "ex:alice" {
		t.Errorf("filter = %v", sols)
	}
	q2 := sparql.MustParse("SELECT ?x WHERE { { ?x foaf:name \"Alice\" } UNION { ?x foaf:name \"Bob\" } }")
	sols2, _ := Eval(g, q2)
	if len(sols2) != 2 {
		t.Errorf("union = %v", sols2)
	}
	ask := sparql.MustParse("ASK { ex:alice foaf:knows ex:bob }")
	sols3, _ := Eval(g, ask)
	if len(sols3) != 1 {
		t.Error("ASK should succeed")
	}
	ask2 := sparql.MustParse("ASK { ex:bob foaf:knows ex:alice }")
	sols4, _ := Eval(g, ask2)
	if len(sols4) != 0 {
		t.Error("ASK should fail")
	}
}

func TestEvalPropertyPath(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q839954 }")
	sols, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["s"] != "site1" {
		t.Fatalf("path solutions = %v", sols)
	}
	// transitive knows
	q2 := sparql.MustParse("SELECT ?y WHERE { ex:alice foaf:knows+ ?y }")
	sols2, _ := Eval(g, q2)
	if len(sols2) != 2 {
		t.Errorf("knows+ = %v", sols2)
	}
}

// TestEvalInversePath: ^ over a sequence answers the converse of the
// sequence, so ?x ^(<a>/<b>) ?y and ?y <a>/<b> ?x have the same solutions.
func TestEvalInversePath(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("s", "<a>", "m")
	g.Add("m", "<b>", "o")
	for _, src := range []string{
		"SELECT * WHERE { ?x ^(<a>/<b>) ?y }",
		"SELECT * WHERE { ?y <a>/<b> ?x }",
	} {
		sols, err := Eval(g, sparql.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 1 || sols[0]["x"] != "o" || sols[0]["y"] != "s" {
			t.Errorf("%s: solutions = %v, want [{x:o y:s}]", src, sols)
		}
	}
}

func TestEvalModifiers(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 2")
	sols, _ := Eval(g, q)
	if len(sols) != 2 {
		t.Errorf("limit+distinct = %v", sols)
	}
	q2 := sparql.MustParse("SELECT ?p WHERE { ?s ?p ?o } OFFSET 100")
	sols2, _ := Eval(g, q2)
	if len(sols2) != 0 {
		t.Errorf("offset = %v", sols2)
	}
}

func TestEvalExistsAndMinus(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT ?x WHERE { ?x foaf:name ?n FILTER EXISTS { ?x foaf:age ?a } }")
	sols, _ := Eval(g, q)
	if len(sols) != 1 || sols[0]["x"] != "ex:alice" {
		t.Errorf("exists = %v", sols)
	}
	q2 := sparql.MustParse("SELECT ?x WHERE { ?x foaf:name ?n MINUS { ?x foaf:age ?a } }")
	sols2, _ := Eval(g, q2)
	if len(sols2) != 1 || sols2[0]["x"] != "ex:bob" {
		t.Errorf("minus = %v", sols2)
	}
}

func TestIsAnswer(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT ?x ?y WHERE { ?x foaf:knows ?y }")
	yes, err := IsAnswer(g, q, Solution{"x": "ex:alice", "y": "ex:bob"})
	if err != nil || !yes {
		t.Errorf("IsAnswer = %v, %v", yes, err)
	}
	no, _ := IsAnswer(g, q, Solution{"x": "ex:bob", "y": "ex:alice"})
	if no {
		t.Error("reversed pair should not be an answer")
	}
}

func TestWellDesigned(t *testing.T) {
	cases := []struct {
		src string
		afo bool
		wd  bool
	}{
		// classic well-designed: optional variable ?n used nowhere else
		{"SELECT * WHERE { ?x foaf:knows ?y OPTIONAL { ?y foaf:name ?n } }", true, true},
		// NOT well-designed: ?n occurs in the optional and outside,
		// but not in the required part of the optional's scope
		{"SELECT * WHERE { ?x foaf:knows ?y OPTIONAL { ?y foaf:name ?n } . ?n foaf:age ?a }", true, false},
		// well-designed: the shared variable also occurs in P1
		{"SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:name ?n OPTIONAL { ?y foaf:mbox ?m } }", true, true},
		// nested optionals, well-designed
		{"SELECT * WHERE { ?x a :P OPTIONAL { ?x :b ?y OPTIONAL { ?y :c ?z } } }", true, true},
		// outside the fragment
		{"SELECT * WHERE { { ?x a :P } UNION { ?x a :Q } }", false, false},
	}
	for _, c := range cases {
		q := sparql.MustParse(c.src)
		if got := UsesOnlyAFO(q); got != c.afo {
			t.Errorf("UsesOnlyAFO(%q) = %v, want %v", c.src, got, c.afo)
		}
		if got := IsWellDesigned(q); got != c.wd {
			t.Errorf("IsWellDesigned(%q) = %v, want %v", c.src, got, c.wd)
		}
	}
}

func TestEvalValues(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse("SELECT ?x ?n WHERE { VALUES ?x { ex:alice ex:carol } ?x foaf:name ?n }")
	sols, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// carol has no name, so only alice joins
	if len(sols) != 1 || sols[0]["x"] != "ex:alice" || sols[0]["n"] != "Alice" {
		t.Errorf("values join = %v", sols)
	}
	// multi-variable VALUES with UNDEF
	q2 := sparql.MustParse("SELECT * WHERE { VALUES (?x ?y) { (ex:alice ex:bob) (ex:bob UNDEF) } ?x foaf:knows ?y }")
	sols2, err := Eval(g, q2)
	if err != nil {
		t.Fatal(err)
	}
	// row 1 pins both and matches; row 2 leaves ?y free → bob knows carol
	if len(sols2) != 2 {
		t.Errorf("values+undef = %v", sols2)
	}
}

func TestUnionOfWellDesigned(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"SELECT * WHERE { { ?x a :P OPTIONAL { ?x :n ?n } } UNION { ?x a :Q } }", true},
		{"SELECT * WHERE { ?x a :P OPTIONAL { ?x :n ?n } }", true},
		// UNION nested under OPTIONAL is not top-level
		{"SELECT * WHERE { ?x a :P OPTIONAL { { ?x :n ?n } UNION { ?x :m ?n } } }", false},
		// a non-well-designed branch poisons the union
		{"SELECT * WHERE { { ?x :k ?y OPTIONAL { ?y :n ?n } . ?n :a ?b } UNION { ?x a :Q } }", false},
	}
	for _, c := range cases {
		q := sparql.MustParse(c.src)
		if got := IsUnionOfWellDesigned(q); got != c.want {
			t.Errorf("IsUnionOfWellDesigned(%q) = %v, want %v", c.src, got, c.want)
		}
		if got := IsWellBehaved(q); got != c.want {
			t.Errorf("IsWellBehaved(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}
