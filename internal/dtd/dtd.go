// Package dtd implements Document Type Definitions as abstracted in
// Definition 4.1 of "Towards Theory for Real-World Data": a DTD is a triple
// (Σ, ρ, S) with ρ mapping labels to regular expressions and S a set of
// start labels; a labeled ordered tree is valid iff the root's label is in
// S and every node's child word matches ρ of its label.
//
// Besides validation the package provides the structural analyses of the
// practical studies in Sections 4.1–4.2: recursion detection (Choi: 35 of
// 60 DTDs were recursive), the maximal document depth of non-recursive DTDs
// (up to 20 in Choi's corpus), streaming validation — constant-memory
// exactly for the non-recursive case (Segoufin & Vianu, discussed in
// Section 4.1) — and DTD inference from example trees.
package dtd

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/automata"
	"repro/internal/graph"
	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/tree"
)

// DTD is the triple (Σ, ρ, S) of Definition 4.1. Σ is implicit: the labels
// occurring in Rules and Start.
type DTD struct {
	// Rules maps each label a to the regular expression ρ(a). Labels that
	// occur in expressions but have no rule default to ρ(a) = ε (leaves).
	Rules map[string]*regex.Expr
	// Start is the set of allowed root labels.
	Start map[string]bool
}

// New returns an empty DTD.
func New() *DTD {
	return &DTD{Rules: map[string]*regex.Expr{}, Start: map[string]bool{}}
}

// AddRule sets ρ(label) = e (written label → e in the paper).
func (d *DTD) AddRule(label string, e *regex.Expr) *DTD {
	d.Rules[label] = e
	return d
}

// AddStart marks label as a start label.
func (d *DTD) AddStart(label string) *DTD {
	d.Start[label] = true
	return d
}

// Alphabet returns the sorted set Σ of labels mentioned by the DTD.
func (d *DTD) Alphabet() []string {
	set := map[string]bool{}
	walked := map[*regex.Expr]bool{} // rules may share a content model
	for a, e := range d.Rules {
		set[a] = true
		if walked[e] {
			continue
		}
		walked[e] = true
		for _, b := range e.Alphabet() {
			set[b] = true
		}
	}
	for a := range d.Start {
		set[a] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Rule returns ρ(label), defaulting to ε for labels without a rule.
func (d *DTD) Rule(label string) *regex.Expr {
	if e, ok := d.Rules[label]; ok {
		return e
	}
	return regex.NewEpsilon()
}

func (d *DTD) String() string {
	var b strings.Builder
	labels := make([]string, 0, len(d.Rules))
	for a := range d.Rules {
		labels = append(labels, a)
	}
	sort.Strings(labels)
	for _, a := range labels {
		fmt.Fprintf(&b, "%s -> %s\n", a, d.Rules[a])
	}
	starts := make([]string, 0, len(d.Start))
	for a := range d.Start {
		starts = append(starts, a)
	}
	sort.Strings(starts)
	fmt.Fprintf(&b, "start: {%s}\n", strings.Join(starts, ", "))
	return b.String()
}

// ValidationError describes why a tree is invalid.
type ValidationError struct {
	Label string   // label of the offending node ("" for a root violation)
	Word  []string // the child word that failed
	Msg   string
}

func (e *ValidationError) Error() string { return "dtd: " + e.Msg }

// Validate checks validity of t w.r.t. d (Definition 4.1). The nil error
// means valid. To validate many documents against one DTD, Compile it
// once and call Compiled.Validate.
func (d *DTD) Validate(t *tree.Node) error {
	return d.Compile().Validate(context.Background(), t)
}

// Compiled is a DTD compiled for validation: an automata.Matcher per
// content model, built the first time a document needs it and shared by
// every rule with the same *regex.Expr (ParseText gives all ANY rules
// one). It is safe for concurrent use, so it can be cached and shared
// across documents and requests.
type Compiled struct {
	d     *DTD
	rules map[string]func() *automata.Matcher
}

// leaf is the matcher of ε, the content model of a label without a rule.
var leaf = automata.NewMatcher(regex.NewEpsilon())

// Compile prepares d for validating many documents; each content model
// is compiled when a document first needs it. The result refers to d,
// which must not change while the result is in use.
func (d *DTD) Compile() *Compiled {
	c := &Compiled{d: d, rules: make(map[string]func() *automata.Matcher, len(d.Rules))}
	shared := map[*regex.Expr]func() *automata.Matcher{}
	for a, e := range d.Rules {
		if shared[e] == nil {
			shared[e] = sync.OnceValue(func() *automata.Matcher { return automata.NewMatcher(e) })
		}
		c.rules[a] = shared[e]
	}
	return c
}

// matcher returns the matcher of ρ(label).
func (c *Compiled) matcher(label string) *automata.Matcher {
	if m, ok := c.rules[label]; ok {
		return m()
	}
	return leaf
}

// Validate checks validity of t w.r.t. the compiled DTD, with the same
// verdicts and the same ValidationError as DTD.Validate, or ctx.Err()
// once a child word's Matcher.Accepts finds it set.
func (c *Compiled) Validate(ctx context.Context, t *tree.Node) error {
	if !c.d.Start[t.Label] {
		return &ValidationError{Msg: fmt.Sprintf("root label %q not in start labels", t.Label)}
	}
	return c.check(ctx, t)
}

func (c *Compiled) check(ctx context.Context, n *tree.Node) error {
	w := n.ChildWord()
	ok, err := c.matcher(n.Label).Accepts(ctx, w)
	if err != nil {
		return err
	}
	if !ok {
		return &ValidationError{
			Label: n.Label,
			Word:  w,
			Msg:   fmt.Sprintf("children %v of %q do not match %s", w, n.Label, c.d.Rule(n.Label)),
		}
	}
	for _, ch := range n.Children {
		if err := c.check(ctx, ch); err != nil {
			return err
		}
	}
	return nil
}

// IsRecursive reports whether the DTD is recursive in the sense of
// Section 4.1: the graph with an edge (a, b) whenever b appears in ρ(a) has
// a directed cycle. Every label on a cycle has a rule, so the search
// starts from the rule labels.
func (d *DTD) IsRecursive() bool {
	roots := make([]string, 0, len(d.Rules))
	for a := range d.Rules {
		roots = append(roots, a)
	}
	return graph.CycleReachable(roots, func(a string) []string {
		if e, ok := d.Rules[a]; ok {
			return e.Alphabet()
		}
		return nil
	})
}

// Realizable returns the set of labels a for which some finite tree rooted
// at an a-labeled node is valid, computed as the least fixpoint: a is
// realizable iff L(ρ(a)) restricted to realizable labels is non-empty.
func (d *DTD) Realizable() map[string]bool {
	real, _ := d.realizableCtx(context.Background())
	return real
}

// realizableCtx is the fixpoint behind Realizable with a context check
// per label per pass: the loop is polynomial in the DTD size, but large
// adversarial DTDs still deserve a deadline.
func (d *DTD) realizableCtx(ctx context.Context) (map[string]bool, error) {
	_, span := obs.StartSpan(ctx, "dtd.realizable")
	defer span.Finish()
	return leastFixpoint(ctx, d.Alphabet(), span.Counter("fixpoint_rounds"), func(a string, real map[string]bool) bool {
		_, empty := d.Rule(a).Restrict(func(b string) bool { return real[b] })
		return !empty
	})
}

// leastFixpoint returns the least set of labels from alpha closed under
// "a joins when nonEmpty(a, set)", re-testing the labels outside the set
// until a pass adds none. rounds counts the passes.
func leastFixpoint(ctx context.Context, alpha []string, rounds *obs.Counter, nonEmpty func(a string, real map[string]bool) bool) (map[string]bool, error) {
	real := map[string]bool{}
	for {
		rounds.Inc()
		changed := false
		for _, a := range alpha {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if !real[a] && nonEmpty(a, real) {
				real[a] = true
				changed = true
			}
		}
		if !changed {
			return real, nil
		}
	}
}

// MaxDepth returns the maximal depth of a tree valid w.r.t. the DTD, or
// (0, false) if the DTD is recursive (depth unbounded) or allows no tree.
// Choi's corpus had non-recursive DTDs allowing depths up to 20.
func (d *DTD) MaxDepth() (int, bool) {
	if d.IsRecursive() {
		return 0, false
	}
	real := d.Realizable()
	keep := func(b string) bool { return real[b] }
	memo := map[string]int{}
	var depth func(label string) int
	depth = func(label string) int {
		if v, ok := memo[label]; ok {
			return v
		}
		best := 0
		// the labels occurring in some word of L(ρ(label)) ∩ real*
		useful, _ := d.Rule(label).Restrict(keep)
		for _, b := range useful {
			if dep := depth(b); dep > best {
				best = dep
			}
		}
		memo[label] = best + 1
		return best + 1
	}
	best := 0
	for s := range d.Start {
		if !real[s] {
			continue
		}
		if v := depth(s); v > best {
			best = v
		}
	}
	if best == 0 {
		return 0, false
	}
	return best, true
}

// Infer learns a DTD from example trees (schema inference, Section 4.2.3):
// start labels are the observed roots; for each label, the children words
// form the sample and infer is applied (e.g. inference.InferSORE or
// inference.InferCHARE).
func Infer(trees []*tree.Node, infer func(inference.Sample) *regex.Expr) *DTD {
	d := New()
	samples := map[string]inference.Sample{}
	for _, t := range trees {
		d.AddStart(t.Label)
		t.Walk(func(n *tree.Node) {
			samples[n.Label] = append(samples[n.Label], n.ChildWord())
		})
	}
	for label, s := range samples {
		d.AddRule(label, infer(s))
	}
	return d
}
