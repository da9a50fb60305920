package oracle

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/edtd"
	"repro/internal/jsonschema"
	"repro/internal/oracle/ref"
	"repro/internal/propertypath"
	"repro/internal/regex"
	"repro/internal/sparql"
	"repro/internal/sparqlalg"
	"repro/internal/tree"
)

// Native Go fuzz targets for the differential oracles. Unlike the seeded
// Trial drivers, these let the fuzzing engine mutate the instances
// directly (expressions and words as text, graphs and schemas as seeds),
// so coverage guidance can reach corners the generators never sample.

func splitWord(s string) []string {
	w := strings.Fields(s)
	if len(w) > 12 {
		w = w[:12]
	}
	return w
}

// FuzzRegexMembership feeds arbitrary expression/word texts to the four
// membership implementations; any parseable pair must agree.
func FuzzRegexMembership(f *testing.F) {
	f.Add("(a b* + c)+", "a b b")
	f.Add("((a (a* c? a)*)+ + b+)*", "a a c a")
	f.Add("a? a? a?", "")
	f.Add("(a + b)* a (a + b)", "b a b")
	f.Fuzz(func(t *testing.T, exprSrc, wordSrc string) {
		e, err := regex.Parse(exprSrc)
		if err != nil {
			t.Skip()
		}
		if posCount(e) > 12 || e.Size() > 60 {
			t.Skip()
		}
		w := splitWord(wordSrc)
		if memberDisagree(e, w) {
			v := memberVerdicts(e, w)
			t.Fatalf("membership divergence on expr=%s word=%q: Matches=%v Derivative=%v DFA=%v Matcher=%v",
				e, w, v[0], v[1], v[2], v[3])
		}
	})
}

// FuzzAntichainContainment checks the antichain engine against the
// derivative reference ref.Contains on arbitrary expression pairs, in
// both directions, plus sampled words of L(e1), the union upper bound
// and Simplify — the coverage-guided complement of the seeded
// antichain-containment oracle.
func FuzzAntichainContainment(f *testing.F) {
	f.Add("a b", "a b + a", int64(1))
	f.Add("(a + b)* a (a + b)", "(a + b)*", int64(2))
	f.Add("a?", "a", int64(3))
	f.Add("(a + b)* (a (a + b) a + b (a + b) b)", "(a + b)* (a (a + b) a + b (a + b) b)", int64(4))
	f.Fuzz(fuzzContainmentPair)
}

// FuzzRegexContainment keeps the seed corpus of the regex-containment
// target, which merged into FuzzAntichainContainment: its inputs run
// through the same checks.
func FuzzRegexContainment(f *testing.F) {
	f.Add("a b", "a b + a", int64(1))
	f.Add("(a + b)*", "a*", int64(2))
	f.Add("a?", "a", int64(3))
	f.Fuzz(fuzzContainmentPair)
}

// fuzzContainmentPair is the body of the containment fuzz targets.
func fuzzContainmentPair(t *testing.T, src1, src2 string, seed int64) {
	e1, err := regex.Parse(src1)
	if err != nil {
		t.Skip()
	}
	e2, err := regex.Parse(src2)
	if err != nil {
		t.Skip()
	}
	if posCount(e1) > 8 || posCount(e2) > 8 || e1.Size() > 40 || e2.Size() > 40 {
		t.Skip()
	}
	for _, dir := range [][2]*regex.Expr{{e1, e2}, {e2, e1}} {
		got, err := automata.ContainsCtx(context.Background(), dir[0], dir[1])
		if err != nil {
			t.Fatalf("ContainsCtx(%s, %s): %v", dir[0], dir[1], err)
		}
		want, decided := ref.Contains(dir[0], dir[1])
		if !decided {
			t.Fatalf("ref.Contains(%s, %s) undecided within its pair budget", dir[0], dir[1])
		}
		if got != want {
			t.Fatalf("antichain Contains(%s, %s)=%v but ref.Contains=%v", dir[0], dir[1], got, want)
		}
	}
	r := rand.New(rand.NewSource(seed))
	c := automata.Contains(e1, e2)
	for i := 0; i < 6; i++ {
		w, ok := regex.RandomWord(e1, r)
		if !ok {
			break
		}
		if !ref.Matches(e1, w) {
			t.Fatalf("RandomWord(%s) produced %q outside the language", e1, w)
		}
		if c && !ref.Matches(e2, w) {
			t.Fatalf("Contains(%s, %s)=true refuted by word %q", e1, e2, w)
		}
	}
	if !automata.Contains(e1, regex.NewUnion(e1.Clone(), e2.Clone())) {
		t.Fatalf("Contains(%s, union with itself)=false", e1)
	}
	if !automata.Equivalent(e1, e1.Simplify()) {
		t.Fatalf("Simplify changed the language of %s", e1)
	}
}

// FuzzDTDContainment parses two DTD texts and replays the containment
// cross-checks (trivial-EDTD agreement, sampled-document refutation).
func FuzzDTDContainment(f *testing.F) {
	f.Add("<!ELEMENT r (s, t?)>\n<!ELEMENT s EMPTY>\n<!ELEMENT t EMPTY>",
		"<!ELEMENT r (s, t*)>\n<!ELEMENT s EMPTY>\n<!ELEMENT t EMPTY>", int64(1))
	f.Add("<!ELEMENT r (s | t)>\n<!ELEMENT s EMPTY>\n<!ELEMENT t EMPTY>",
		"<!ELEMENT r (s)>\n<!ELEMENT s EMPTY>\n<!ELEMENT t EMPTY>", int64(2))
	f.Fuzz(func(t *testing.T, src1, src2 string, seed int64) {
		d1, err := dtd.ParseText(src1, "r")
		if err != nil {
			t.Skip()
		}
		d2, err := dtd.ParseText(src2, "r")
		if err != nil {
			t.Skip()
		}
		for _, d := range []*dtd.DTD{d1, d2} {
			for _, e := range d.Rules {
				if posCount(e) > 6 {
					t.Skip()
				}
			}
			if len(d.Rules) > 8 || d.IsRecursive() {
				t.Skip()
			}
		}
		c := dtd.Contains(d1, d2)
		if edtd.Contains(trivialEDTD(d1), trivialEDTD(d2)) != c {
			t.Fatalf("dtd.Contains=%v but trivial-EDTD containment disagrees on\n%s\nvs\n%s", c, d1, d2)
		}
		if !dtd.Contains(d1, d1) {
			t.Fatalf("dtd.Contains not reflexive on %s", d1)
		}
		r := rand.New(rand.NewSource(seed))
		e1 := trivialEDTD(d1)
		for i := 0; i < 4; i++ {
			tr := sampleParsedDTDTree(d1, r, 6)
			if tr == nil {
				break
			}
			if err := d1.Validate(tr); err != nil {
				t.Fatalf("sampled document rejected by its own DTD: %v\n%s", err, tr)
			}
			if c {
				if err := d2.Validate(tr); err != nil {
					t.Fatalf("containment refuted by sampled document %s", tr)
				}
			}
			if e1.Valid(tr) != validSingleType(e1, tr) {
				t.Fatalf("EDTD validators disagree on %s", tr)
			}
		}
	})
}

// FuzzJSONSchemaContainment replays the verdict-soundness checks on
// arbitrary schema texts.
func FuzzJSONSchemaContainment(f *testing.F) {
	f.Add(`{"type":"object","required":["a"]}`, `{"type":"object"}`, int64(1))
	f.Add(`{"enum":[1,2]}`, `{"type":"number"}`, int64(2))
	f.Fuzz(func(t *testing.T, src1, src2 string, seed int64) {
		s1, err := jsonschema.Parse(src1)
		if err != nil {
			t.Skip()
		}
		s2, err := jsonschema.Parse(src2)
		if err != nil {
			t.Skip()
		}
		if v, w := jsonschema.Contains(s1, s1, 20, seed); v == jsonschema.NotContained {
			t.Fatalf("Contains(s,s)=NotContained with witness %s for %s", w, src1)
		}
		v, witness := jsonschema.Contains(s1, s2, 20, seed)
		if v == jsonschema.NotContained {
			if err := s1.Validate(witness); err != nil {
				t.Fatalf("witness %s does not validate under s1 %s: %v", witness, src1, err)
			}
			if err := s2.Validate(witness); err == nil {
				t.Fatalf("witness %s validates under s2 %s", witness, src2)
			}
		}
	})
}

// FuzzPropertyPathEval parses a path text and checks, on a seeded random
// graph, the inverse law of ^ and the Glushkov product against the
// derivative product.
func FuzzPropertyPathEval(f *testing.F) {
	f.Add(":p/:q*", int64(1))
	f.Add("^:p|!(:q)", int64(2))
	f.Add("(:p/^:q)+", int64(3))
	f.Add("^(:p/:q)", int64(4))
	f.Add("^!(:q)", int64(5))
	f.Fuzz(func(t *testing.T, pathSrc string, seed int64) {
		p, err := sparql.ParsePath(pathSrc)
		if err != nil {
			t.Skip()
		}
		if p.Size() > 12 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		g := randomPPGraph(r)
		if msg := inverseLawViolation(g, p); msg != "" {
			t.Fatalf("inverse law violated: %s on %s", msg, ppInput(g, p, "n0"))
		}
		start := "n0"
		reg := propertypath.Eval(g, p, start)
		naive, ok := derivativeEval(g, p, start, 20000)
		if ok && !sameStrings(reg, naive) {
			t.Fatalf("Eval=%v but derivative product=%v on %s", reg, naive, ppInput(g, p, start))
		}
		simple := propertypath.EvalSimplePaths(g, p, start)
		trails := propertypath.EvalTrails(g, p, start)
		if !subset(simple, trails) || !subset(trails, reg) {
			t.Fatalf("semantics hierarchy violated: simple=%v trails=%v regular=%v on %s",
				simple, trails, reg, ppInput(g, p, start))
		}
	})
}

// FuzzSparqlEval parses arbitrary query text and checks that the
// evaluator never panics and that every solution it returns is an
// answer per IsAnswer.
func FuzzSparqlEval(f *testing.F) {
	f.Add("SELECT * WHERE { ?x ex:p ?y . ?y ex:q ?z . }", int64(1))
	f.Add("SELECT DISTINCT ?x WHERE { { ?x ex:p ex:n0 . } UNION { ?x ex:q ?y . } }", int64(2))
	f.Add("ASK { ex:n0 ex:p ?y FILTER(?y != ex:n1) }", int64(3))
	f.Fuzz(func(t *testing.T, querySrc string, seed int64) {
		q, err := sparql.Parse(querySrc)
		if err != nil {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		g := randomSQGraph(r)
		sols, err := sparqlalg.Eval(g, q)
		if err != nil {
			t.Skip()
		}
		if len(sols) > 200 {
			sols = sols[:200]
		}
		for _, s := range sols {
			ok, err := sparqlalg.IsAnswer(g, q, s)
			if err == nil && !ok {
				t.Fatalf("Eval returned %v but IsAnswer rejects it for %q", s, querySrc)
			}
		}
	})
}

// FuzzShardMerge drives the shard/merge invariant with raw fuzz bytes
// as the query stream: arbitrary (mostly invalid) queries plus forced
// duplicates must still merge byte-identically to sequential, whether
// sharded or one analyzer per query.
func FuzzShardMerge(f *testing.F) {
	f.Add("SELECT * WHERE { ?x ex:p ?y . }\nnot a query\nSELECT ?x WHERE { ?x ex:q ex:n0 . }", int64(1))
	f.Add("ASK { ?x ?y ?z }\nASK { ?x ?y ?z }", int64(2))
	f.Fuzz(func(t *testing.T, blob string, seed int64) {
		lines := strings.Split(blob, "\n")
		if len(lines) > 40 {
			lines = lines[:40]
		}
		r := rand.New(rand.NewSource(seed))
		qs := append([]string(nil), lines...)
		for i := 0; i < len(lines)/3+1; i++ {
			qs = append(qs, lines[r.Intn(len(lines))])
		}
		for _, side := range []shardSide{noReplay, sharded(2), sharded(5)} {
			if diff := shardDiff("fuzz", qs, side); diff != "" {
				t.Fatalf("shard/merge divergence: %s (queries %q)", diff, qs)
			}
		}
	})
}

// sampleParsedDTDTree samples a valid document from an arbitrary
// (possibly non-layered) DTD with an explicit depth bound; nil when the
// bound is hit or a content model has no finite word.
func sampleParsedDTDTree(d *dtd.DTD, r *rand.Rand, maxDepth int) *tree.Node {
	var build func(label string, depth int) *tree.Node
	build = func(label string, depth int) *tree.Node {
		if depth > maxDepth {
			return nil
		}
		n := tree.New(label)
		w, ok := regex.RandomWord(d.Rule(label), r)
		if !ok {
			return nil
		}
		for _, child := range w {
			c := build(child, depth+1)
			if c == nil {
				return nil
			}
			n.Add(c)
		}
		return n
	}
	var root *tree.Node
	for label := range d.Start {
		if root = build(label, 0); root != nil {
			break
		}
	}
	return root
}
