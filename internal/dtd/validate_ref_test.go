package dtd

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/regex"
	"repro/internal/tree"
)

// refValidate is the per-document validator that DTD.Validate used to
// run, kept as the reference for the compiled one: it determinizes the
// Glushkov automaton of each rule the document meets, per document.
func refValidate(d *DTD, t *tree.Node) error {
	if !d.Start[t.Label] {
		return &ValidationError{Msg: fmt.Sprintf("root label %q not in start labels", t.Label)}
	}
	dfas := map[string]*automata.DFA{}
	var check func(n *tree.Node) error
	check = func(n *tree.Node) error {
		dfa, ok := dfas[n.Label]
		if !ok {
			dfa = automata.Determinize(automata.Glushkov(d.Rule(n.Label)))
			dfas[n.Label] = dfa
		}
		w := n.ChildWord()
		if !dfa.Accepts(w) {
			return &ValidationError{
				Label: n.Label,
				Word:  w,
				Msg:   fmt.Sprintf("children %v of %q do not match %s", w, n.Label, d.Rule(n.Label)),
			}
		}
		for _, c := range n.Children {
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(t)
}

var refLabels = []string{"r", "s", "t", "u"}

// randomDTD draws rules for a random subset of refLabels (the others
// default to ε) over all of them, recursion allowed, with one or two
// start labels.
func randomDTD(r *rand.Rand) *DTD {
	g := regex.DefaultGen(refLabels)
	g.MaxDepth = 3
	d := New()
	for _, l := range refLabels {
		switch r.Intn(4) {
		case 0: // no rule: ρ = ε
		case 1:
			d.AddRule(l, regex.NewEpsilon())
		default:
			d.AddRule(l, g.Random(r))
		}
	}
	d.AddStart(refLabels[r.Intn(len(refLabels))])
	if r.Intn(2) == 0 {
		d.AddStart(refLabels[r.Intn(len(refLabels))])
	}
	return d
}

// randomDoc draws a document that is valid by construction (children
// sampled from the rules) and then, half the time, mutated by one
// relabeling, deletion or insertion so it sits near the boundary.
func randomDoc(d *DTD, r *rand.Rand) *tree.Node {
	var build func(label string, depth int) *tree.Node
	build = func(label string, depth int) *tree.Node {
		n := tree.New(label)
		if depth == 0 {
			return n
		}
		w, ok := regex.RandomWord(d.Rule(label), r)
		if !ok {
			return n
		}
		for _, c := range w {
			n.Add(build(c, depth-1))
		}
		return n
	}
	root := refLabels[r.Intn(len(refLabels))]
	for s := range d.Start {
		if r.Intn(3) > 0 {
			root = s
		}
	}
	t := build(root, 4)
	if r.Intn(2) == 0 {
		var nodes []*tree.Node
		t.Walk(func(n *tree.Node) { nodes = append(nodes, n) })
		n := nodes[r.Intn(len(nodes))]
		switch r.Intn(3) {
		case 0:
			n.Label = refLabels[r.Intn(len(refLabels))]
		case 1:
			if len(n.Children) > 0 {
				i := r.Intn(len(n.Children))
				n.Children = append(n.Children[:i], n.Children[i+1:]...)
			}
		default:
			n.Add(tree.New(refLabels[r.Intn(len(refLabels))]))
		}
	}
	return t
}

// TestCompiledMatchesReference checks the compiled validator against
// the per-document reference on seeded random DTDs and documents: the
// same verdict and, for invalid documents, an identical ValidationError,
// message text included.
func TestCompiledMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var valid, invalid int
	for i := 0; i < 300; i++ {
		d := randomDTD(r)
		c := d.Compile()
		for j := 0; j < 8; j++ {
			doc := randomDoc(d, r)
			want := refValidate(d, doc)
			got := c.Validate(context.Background(), doc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DTD\n%sdoc %s:\ncompiled  %v\nreference %v", d, doc, got, want)
			}
			if want == nil {
				valid++
			} else {
				invalid++
			}
		}
	}
	if valid < 200 || invalid < 200 {
		t.Fatalf("unbalanced sample: %d valid, %d invalid documents", valid, invalid)
	}
}

// manyANY returns the text of a DTD declaring n elements e0 … e(n-1),
// each with content ANY, and a document over all of them.
func manyANY(n int) (schema, doc string) {
	var s strings.Builder
	kids := make([]string, n-1)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&s, "<!ELEMENT e%d ANY>\n", i)
		if i > 0 {
			kids[i-1] = fmt.Sprintf("e%d", i)
		}
	}
	return s.String(), "e0(" + strings.Join(kids, ", ") + ")"
}

// TestCompileBuildsOnlyWhatDocumentsUse pins the cost of ANY: ParseText
// expands ANY to (e0 + … + e(n-1))*, whose matcher is linear in n
// though its Glushkov automaton has n² transitions. All n rules share
// that one expression and its one matcher, built only when a document
// first needs it, so validating a document that uses every element
// costs about one Compile and one matcher build, and an n=1000 schema
// validates a leaf of an EMPTY element quickly.
func TestCompileBuildsOnlyWhatDocumentsUse(t *testing.T) {
	schema, all := manyANY(300)
	d, err := ParseText(schema, "")
	if err != nil {
		t.Fatal(err)
	}
	full := tree.MustParse(all)
	if err := d.Validate(full); err != nil {
		t.Fatal(err)
	}
	one := testing.AllocsPerRun(3, func() {
		d.Compile()
		automata.NewMatcher(d.Rules["e0"])
	})
	if got := testing.AllocsPerRun(3, func() { d.Validate(full) }); got > 1.5*one {
		t.Fatalf("a document using all 300 ANY elements took %v allocations, one Compile and matcher build %v: the rules do not share a matcher", got, one)
	}

	// One leaf of an EMPTY element: no ANY matcher is built.
	schema, _ = manyANY(1000)
	start := time.Now()
	d, err = ParseText("<!ELEMENT r EMPTY>\n"+schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(tree.MustParse("r")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("parsing 1000 ANY declarations and validating one leaf took %v, want < 50ms", el)
	}
	if allocs := testing.AllocsPerRun(3, func() { d.Validate(tree.MustParse("r")) }); allocs > 100 {
		t.Fatalf("validating one leaf against 1001 rules took %v allocations", allocs)
	}
}

// TestCompileSizeLinear validates against a rule of 5000 distinct labels
// in sequence; its matcher's size is linear in them (a states × labels
// table of it would take 100 MB).
func TestCompileSizeLinear(t *testing.T) {
	const k = 5000
	labels := make([]string, k)
	for i := range labels {
		labels[i] = fmt.Sprintf("a%d", i)
	}
	d := New().AddStart("r").AddRule("r", regex.MustParse(strings.Join(labels, " ")))
	doc := tree.MustParse("r(" + strings.Join(labels, ", ") + ")")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := d.Validate(doc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 16<<20 {
		t.Fatalf("validating against %d labels allocated %d bytes, want < 16 MiB", k, bytes)
	}
}

// TestCompiledConcurrent validates through one Compiled from several
// goroutines at once, so its lazily built matchers are raced (run with
// -race).
func TestCompiledConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		d := randomDTD(r)
		docs := make([]*tree.Node, 8)
		want := make([]error, len(docs))
		for j := range docs {
			docs[j] = randomDoc(d, r)
			want[j] = refValidate(d, docs[j])
		}
		c := d.Compile()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j, doc := range docs {
					if got := c.Validate(context.Background(), doc); !reflect.DeepEqual(got, want[j]) {
						t.Errorf("doc %s: compiled %v, reference %v", doc, got, want[j])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestValidateNondeterministicContentIsPolynomial is the regression
// test for exponential validation: the content model
// ((a|b)*, a, (a|b), …, (a|b)) with k copies of (a|b) is not
// deterministic, and its minimal DFA has 2^(k+1) states, so validating by
// determinization took seconds at k=16 and doubled per step of k.
func TestValidateNondeterministicContentIsPolynomial(t *testing.T) {
	const k = 24
	model := "((a|b)*, a" + strings.Repeat(", (a|b)", k) + ")"
	d, err := ParseText("<!ELEMENT r "+model+"> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>", "")
	if err != nil {
		t.Fatal(err)
	}
	children := []string{"b", "a"}
	for i := 0; i < k; i++ {
		children = append(children, "b")
	}
	good := tree.MustParse("r(" + strings.Join(children, ", ") + ")")
	bad := tree.MustParse("r(" + strings.Join(children[1:], ", ") + ", a)")
	start := time.Now()
	if err := d.Validate(good); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if err := d.Validate(bad); err == nil {
		t.Fatal("invalid document accepted")
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("validating at k=%d took %v, want < 50ms", k, el)
	}
}

// TestValidateStreamNondeterministicContentIsPolynomial is the streaming
// twin of TestValidateNondeterministicContentIsPolynomial: the stream
// validator used to determinize each content model, which took seconds
// at k=16 on this family and doubled per step of k.
func TestValidateStreamNondeterministicContentIsPolynomial(t *testing.T) {
	const k = 24
	model := "((a|b)*, a" + strings.Repeat(", (a|b)", k) + ")"
	d, err := ParseText("<!ELEMENT r "+model+"> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>", "")
	if err != nil {
		t.Fatal(err)
	}
	children := []string{"b", "a"}
	for i := 0; i < k; i++ {
		children = append(children, "b")
	}
	good := tree.MustParse("r(" + strings.Join(children, ", ") + ")")
	bad := tree.MustParse("r(" + strings.Join(children[1:], ", ") + ", a)")
	start := time.Now()
	if err := d.ValidateStream(Events(good)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if err := d.ValidateStream(Events(bad)); err == nil {
		t.Fatal("invalid document accepted")
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("streaming validation at k=%d took %v, want < 50ms", k, el)
	}
}
