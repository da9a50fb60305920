package xmllite

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

func TestParseFigure1(t *testing.T) {
	el, err := Parse(Figure1XML)
	if err != nil {
		t.Fatalf("Figure 1 XML should be well-formed: %v", err)
	}
	tr := el.AsTree()
	want := tree.MustParse("persons(person(name, birthplace(city, state, country)), person(name, birthplace(city, state)))")
	if !tr.Equal(want) {
		t.Errorf("tree = %v, want %v", tr, want)
	}
	if tr.Depth() != 4 {
		t.Errorf("depth = %d, want 4", tr.Depth())
	}
	if el.Children[0].Attrs[0].Name != "pers_id" || el.Children[0].Attrs[0].Value != "1" {
		t.Errorf("attrs = %v", el.Children[0].Attrs)
	}
}

func TestWellFormedVariants(t *testing.T) {
	good := []string{
		"<a/>",
		"<a></a>",
		"<a x=\"1\" y='2'><b/>text</a>",
		"<?xml version=\"1.0\"?><a/>",
		"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
		"<a><!-- comment --></a>",
		"<a><![CDATA[ <raw> & stuff ]]></a>",
		"<a>&amp;&lt;&#38;&#x26;</a>",
		"<a:ns.x-y_z/>",
		"<a><?pi data?></a>",
	}
	for _, doc := range good {
		if cat := Check(doc); cat != ErrNone {
			t.Errorf("Check(%q) = %v, want well-formed", doc, cat)
		}
	}
}

func TestErrorCategories(t *testing.T) {
	cases := []struct {
		doc  string
		want ErrorCategory
	}{
		{"<a></b>", ErrTagMismatch},
		{"<a><b></a></b>", ErrTagMismatch},
		{"<a", ErrPrematureEnd},
		{"<a><b></b>", ErrPrematureEnd},
		{"<a x=", ErrPrematureEnd},
		{"<a>\xff\xfe</a>", ErrBadUTF8},
		{"<a>1 & 2</a>", ErrBadEntity},
		{"<a>&nbsp</a>", ErrBadEntity},
		{"<a x=1/>", ErrBadAttribute},
		{"<a x>1</a>", ErrBadAttribute},
		{"<a x=\"1\" x=\"2\"/>", ErrDuplicateAttr},
		{"<a/><b/>", ErrMultipleRoots},
		{"<a/>trailing", ErrMultipleRoots},
		{"<1a/>", ErrBadName},
		{"<a>1 < 2</a>", ErrStrayLT},
		{"", ErrEmptyDocument},
		{"<?xml version=\"1.0\"?>  ", ErrEmptyDocument},
	}
	for _, c := range cases {
		if got := Check(c.doc); got != c.want {
			t.Errorf("Check(%q) = %v, want %v", c.doc, got, c.want)
		}
	}
}

func TestCorpusGeneratorFaultsLandInCategory(t *testing.T) {
	g := DefaultCorpusGen()
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		doc := g.wellFormed(r)
		if cat := Check(doc); cat != ErrNone {
			t.Fatalf("generator produced non-well-formed base document (%v): %q", cat, doc)
		}
	}
}

func TestRunStudyReproducesGrijzenhoutMarx(t *testing.T) {
	// Section 3.1: 85% well-formed; top-3 categories ≈ 79.9% of errors;
	// 9 categories ≈ 99%. The corpus is synthetic but the classification is
	// done by the real checker.
	g := DefaultCorpusGen()
	r := rand.New(rand.NewSource(42))
	docs := make([]string, 4000)
	for i := range docs {
		docs[i] = g.Document(r)
	}
	res := RunStudy(docs)
	if rate := res.WellFormedRate(); rate < 0.82 || rate > 0.88 {
		t.Errorf("well-formed rate = %.3f, want ≈ 0.85", rate)
	}
	if res.TopThreeRate < 0.70 || res.TopThreeRate > 0.90 {
		t.Errorf("top-3 error rate = %.3f, want ≈ 0.80", res.TopThreeRate)
	}
	// the dominant category must be tag mismatch
	max := ErrNone
	for cat, n := range res.ByCategory {
		if max == ErrNone || n > res.ByCategory[max] {
			max = cat
		}
	}
	if max != ErrTagMismatch {
		t.Errorf("dominant category = %v, want tag mismatch", max)
	}
}

func TestStudyOnPerfectAndBrokenCorpora(t *testing.T) {
	res := RunStudy([]string{"<a/>", "<b></b>"})
	if res.WellFormed != 2 || res.TopThreeRate != 0 {
		t.Errorf("perfect corpus: %+v", res)
	}
	res2 := RunStudy([]string{"<a", "<a></b>"})
	if res2.WellFormed != 0 || len(res2.ByCategory) != 2 {
		t.Errorf("broken corpus: %+v", res2)
	}
}
