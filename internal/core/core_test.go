package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestAnalyzerBasics(t *testing.T) {
	a := NewAnalyzer("test")
	a.Ingest("SELECT ?s WHERE { ?s ?p ?o }")
	a.Ingest("SELECT ?s WHERE { ?s ?p ?o }")       // duplicate
	a.Ingest("SELECT  ?s  WHERE  {  ?s ?p ?o . }") // whitespace duplicate
	a.Ingest("SELECT ?s WHERE { ?s ?p ?o ")        // invalid
	a.Ingest("SELECT ?s ?n WHERE { ?s foaf:knows ?x . ?x foaf:name ?n }")
	r := a.Report
	if r.Total != 5 || r.Valid != 4 || r.Unique != 2 {
		t.Fatalf("counts: total=%d valid=%d unique=%d", r.Total, r.Valid, r.Unique)
	}
	// triple buckets: three 1-triple (V), one 2-triple
	if r.TripleBuckets[1].V != 3 || r.TripleBuckets[1].U != 1 {
		t.Errorf("bucket1 = %+v", r.TripleBuckets[1])
	}
	if r.TripleBuckets[2].V != 1 || r.TripleBuckets[2].U != 1 {
		t.Errorf("bucket2 = %+v", r.TripleBuckets[2])
	}
	// operator sets
	if c := r.OperatorSets["none"]; c == nil || c.V != 3 || c.U != 1 {
		t.Errorf("none = %+v", c)
	}
	if c := r.OperatorSets["And"]; c == nil || c.V != 1 {
		t.Errorf("And = %+v", c)
	}
}

func TestAnalyzerHypergraphRows(t *testing.T) {
	a := NewAnalyzer("test")
	// chain CQ: acyclic, free-connex for the full projection
	a.Ingest("SELECT * WHERE { ?x :p ?y . ?y :q ?z }")
	// projection {x,z} of the chain: acyclic but NOT free-connex
	a.Ingest("SELECT ?x ?z WHERE { ?x :p ?y . ?y :q ?z }")
	// triangle: cyclic, htw 2
	a.Ingest("SELECT * WHERE { ?x :p ?y . ?y :q ?z . ?z :r ?x }")
	r := a.Report
	if r.CQ.Total.V != 3 {
		t.Fatalf("CQ total = %+v", r.CQ.Total)
	}
	if r.CQ.FCA.V != 1 {
		// only the full-projection chain is free-connex: the {x,z}
		// projection fails free-connexness and the triangle is cyclic
		t.Errorf("FCA = %+v, want V:1", r.CQ.FCA)
	}
	if r.CQ.Htw1.V != 2 || r.CQ.Htw2.V != 3 || r.CQ.Htw3.V != 3 {
		t.Errorf("htw rows: %+v %+v %+v", r.CQ.Htw1, r.CQ.Htw2, r.CQ.Htw3)
	}
}

func TestAnalyzerShapes(t *testing.T) {
	a := NewAnalyzer("test")
	ingest := func(q string) { a.Ingest(q) }
	ingest("SELECT * WHERE { ?x :p ?y }")                       // 1 edge
	ingest("SELECT * WHERE { ?x :p ?y . ?y :q ?z . ?z :r ?w }") // chain
	ingest("SELECT * WHERE { ?x :p ?a . ?x :q ?b . ?x :r ?c }") // star
	ingest("SELECT * WHERE { ?x :p ?y . ?y :q ?z . ?z :r ?x }") // cycle: tw 2
	ingest("SELECT * WHERE { ?x :p dbr:Berlin }")               // constant: 1 edge with, 0 without
	r := a.Report
	if r.GraphCQF.V != 5 {
		t.Fatalf("graph-CQ+F = %+v", r.GraphCQF)
	}
	if r.ShapeWith[ShapeOneEdge].V != 2 {
		t.Errorf("with-constants <=1 edge = %+v", r.ShapeWith[ShapeOneEdge])
	}
	if r.ShapeWithout[ShapeNoEdge].V != 1 {
		t.Errorf("without-constants no-edge = %+v", r.ShapeWithout[ShapeNoEdge])
	}
	if r.ShapeWith[ShapeChain].V != 1 || r.ShapeWith[ShapeStar].V != 1 || r.ShapeWith[ShapeTW2].V != 1 {
		t.Errorf("shapes: chain=%+v star=%+v tw2=%+v",
			r.ShapeWith[ShapeChain], r.ShapeWith[ShapeStar], r.ShapeWith[ShapeTW2])
	}
}

func TestAnalyzerVarPredicateNotGraphPattern(t *testing.T) {
	a := NewAnalyzer("test")
	// the predicate variable ?p also appears in another triple: not a
	// graph pattern (Section 9.5)
	a.Ingest("SELECT * WHERE { ?x ?p ?y . ?p :domain ?d }")
	if a.Report.GraphCQF.V != 0 {
		t.Errorf("graph-CQ+F = %+v, want 0", a.Report.GraphCQF)
	}
	// wildcard predicate is fine
	a.Ingest("SELECT * WHERE { ?x ?q ?y }")
	if a.Report.GraphCQF.V != 1 {
		t.Errorf("graph-CQ+F = %+v, want 1", a.Report.GraphCQF)
	}
}

func TestAnalyzerPropertyPaths(t *testing.T) {
	a := NewAnalyzer("test")
	a.Ingest("SELECT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q839954 }")
	a.Ingest("SELECT ?s WHERE { ?s wdt:P279* ?o }")
	a.Ingest("SELECT ?s WHERE { ?s wdt:P31*/wdt:P279* ?o }") // a*b*: outside STE
	r := a.Report
	if r.PPTotal.V != 3 {
		t.Fatalf("PP total = %+v", r.PPTotal)
	}
	if r.NonSTE.V != 1 {
		t.Errorf("non-STE = %+v", r.NonSTE)
	}
	if r.NonCtract.V != 0 {
		t.Errorf("non-Ctract = %+v (all three shapes are tractable)", r.NonCtract)
	}
}

func TestRunLogStudySmall(t *testing.T) {
	reports := RunLogStudy(context.Background(), Config{Seed: 1, ScaleDiv: 2000000}) // tiny corpora (~50-100 queries each)
	if len(reports) != 17 {
		t.Fatalf("sources = %d", len(reports))
	}
	for _, r := range reports {
		if r.Total == 0 {
			t.Errorf("%s: empty corpus", r.Name)
		}
		if r.Valid > r.Total || r.Unique > r.Valid {
			t.Errorf("%s: inconsistent counts %d/%d/%d", r.Name, r.Total, r.Valid, r.Unique)
		}
		if r.Valid == 0 {
			t.Errorf("%s: no valid queries — generator/parser mismatch", r.Name)
		}
	}
	var buf bytes.Buffer
	RenderAll(&buf, reports)
	out := buf.String()
	for _, want := range []string{"Table 2", "Figure 3", "Table 8", "CQ+F subtotal", "property paths (RPQs)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestGeneratorParserAgreement(t *testing.T) {
	// The generator's invalid-rate must come from corruption, not from the
	// parser rejecting "valid" productions: on sources with ~0 invalid
	// rate, nearly everything must parse.
	reports := RunLogStudy(context.Background(), Config{Seed: 7, ScaleDiv: 500000})
	for _, r := range reports {
		if r.Name == "BioMed13" || r.Name == "WikiRobot/OK" || r.Name == "BioP13" {
			rate := float64(r.Valid) / float64(r.Total)
			if rate < 0.97 {
				t.Errorf("%s: valid rate %.3f, generator emits unparsable queries", r.Name, rate)
			}
		}
	}
}

func TestRenderTable1(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf, 42, 0.15)
	out := buf.String()
	for _, name := range []string{"HongKong", "Paris", "Wikipedia", "Gnutella", "Royal"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, out)
		}
	}
}
