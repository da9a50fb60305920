package oracle

import (
	"strings"
	"testing"

	"repro/internal/edtd"
	"repro/internal/regex"
	"repro/internal/tree"
)

// TestSchemaInjectedBugCaught proves the schema oracle detects a
// streaming validator that accepts every element at its close within a
// modest seed band, and that the reported seed replays.
func TestSchemaInjectedBugCaught(t *testing.T) {
	SetInjectedBug("schema-containment")
	defer SetInjectedBug("")
	o, err := Select([]string{"schema-containment"})
	if err != nil {
		t.Fatal(err)
	}
	var d *Divergence
	for seed := int64(1); seed <= 300; seed++ {
		if d = RunTrial(o[0], seed); d != nil {
			break
		}
	}
	if d == nil {
		t.Fatal("injected bug not caught in 300 trials")
	}
	t.Logf("caught: %s", d)
	if !strings.Contains(d.Detail, "ValidateStream") {
		t.Fatalf("divergence does not implicate the streaming validator: %s", d.Detail)
	}
	d2 := RunTrial(o[0], d.Seed)
	if d2 == nil || d2.Input != d.Input || d2.Detail != d.Detail {
		t.Fatalf("replay of seed %d did not reproduce:\nwant %s\ngot  %v", d.Seed, d, d2)
	}
}

// TestSingleTypeAgreesWithGeneralValidation checks the top-down
// reference validSingleType and edtd's bottom-up Valid on the
// single-type EDTD of Figure 2a, where h's content depends on whether
// it sits under b or under c.
func TestSingleTypeAgreesWithGeneralValidation(t *testing.T) {
	d := edtd.New().
		AddType("a", "a", regex.MustParse("b + c")).
		AddType("b", "b", regex.MustParse("e d1 f")).
		AddType("c", "c", regex.MustParse("e d2 f")).
		AddType("d1", "d", regex.MustParse("g h1 i")).
		AddType("d2", "d", regex.MustParse("g h2 i")).
		AddType("h1", "h", regex.MustParse("j")).
		AddType("h2", "h", regex.MustParse("k")).
		AddStart("a")
	for _, typ := range []string{"e", "f", "g", "i", "j", "k"} {
		d.AddType(typ, typ, regex.NewEpsilon())
	}
	cases := []struct {
		tree  string
		valid bool
	}{
		{"a(b(e, d(g, h(j), i), f))", true},
		{"a(c(e, d(g, h(k), i), f))", true},
		{"a(b(e, d(g, h(k), i), f))", false},
		{"a(c(e, d(g, h(j), i), f))", false},
		{"a(b(e, f))", false},
		{"b(e, d(g, h(j), i), f)", false},
		{"a(b(e, d(g, h(j), i), f), b(e, d(g, h(j), i), f))", false},
		{"a(b(e, d(g, h(j, j), i), f))", false},
		{"a", false},
		{"x", false},
	}
	for _, c := range cases {
		tr := tree.MustParse(c.tree)
		if got := validSingleType(d, tr); got != c.valid || d.Valid(tr) != c.valid {
			t.Errorf("%s: validSingleType = %v, Valid = %v, want %v", c.tree, got, d.Valid(tr), c.valid)
		}
	}
}
