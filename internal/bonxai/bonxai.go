// Package bonxai implements the pattern-based schemas of Section 4.4
// (Figure 2b), after the BonXai language of Martens, Neven, Niewerth &
// Schwentick: a schema is a list of rules φ → e, where φ is an
// ancestor-path pattern (an XPath-like expression such as a or //b//h) and
// e is a regular expression. A tree T satisfies the schema if every node v
// (1) is selected by at least one left-hand side and (2) for every rule
// whose pattern selects v, the children of v match the rule's expression.
//
// The conceptual advantage over XML Schema (Section 4.4): no explicit type
// alphabet is needed — the schema mentions only labels that occur in
// documents. The package also compiles a pattern-based schema into an
// equivalent single-type EDTD by tracking each pattern's matching state
// down the tree (a "vertical" determinization), connecting Figure 2b back
// to Figure 2a.
package bonxai

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/determinism"
	"repro/internal/edtd"
	"repro/internal/regex"
	"repro/internal/tree"
)

// Step is one location step of a pattern: a label (or "*") with a flag for
// whether a descendant gap (//) precedes it.
type Step struct {
	Label string // "*" is the wildcard
	Gap   bool   // true when reached via //
}

// Pattern is an ancestor-path pattern. It is matched against the label
// path from the root to a node (inclusive); the final step must match the
// node itself. An unanchored pattern (written without a leading /) has an
// implicit leading //.
type Pattern struct {
	Steps []Step
	src   string
}

// ParsePattern parses patterns of the forms a, /a/b, //b//h, /a//b/*.
func ParsePattern(s string) (*Pattern, error) {
	orig := s
	p := &Pattern{src: orig}
	gap := true // unanchored patterns have an implicit leading //
	switch {
	case strings.HasPrefix(s, "//"):
		s = s[2:]
	case strings.HasPrefix(s, "/"):
		s = s[1:]
		gap = false
	}
	for {
		i := strings.IndexByte(s, '/')
		var lab string
		if i < 0 {
			lab, s = s, ""
		} else {
			lab, s = s[:i], s[i:]
		}
		if lab == "" {
			return nil, fmt.Errorf("bonxai: empty step in pattern %q", orig)
		}
		p.Steps = append(p.Steps, Step{Label: lab, Gap: gap})
		if s == "" {
			break
		}
		if strings.HasPrefix(s, "//") {
			gap = true
			s = s[2:]
		} else {
			gap = false
			s = s[1:]
		}
		if s == "" {
			return nil, fmt.Errorf("bonxai: trailing '/' in pattern %q", orig)
		}
	}
	return p, nil
}

// MustParsePattern panics on parse errors; for tests and literals.
func MustParsePattern(s string) *Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Pattern) String() string { return p.src }

// Matches reports whether the pattern selects the node whose root-to-node
// label path is path (root first, node last).
func (p *Pattern) Matches(path []string) bool {
	// DP over (step index, path index): ok[i][j] = steps[i:] can match
	// path[j:] ending exactly at the end. Iterative backward DP.
	n, m := len(p.Steps), len(path)
	// ok[i][j], i in 0..n, j in 0..m
	ok := make([][]bool, n+1)
	for i := range ok {
		ok[i] = make([]bool, m+1)
	}
	ok[n][m] = true
	for i := n - 1; i >= 0; i-- {
		st := p.Steps[i]
		for j := m - 1; j >= 0; j-- {
			matches := st.Label == "*" || st.Label == path[j]
			if matches && ok[i+1][j+1] {
				ok[i][j] = true
				continue
			}
			if st.Gap && ok[i][j+1] {
				// the gap can skip path[j]
				ok[i][j] = true
			}
		}
	}
	// The first step starts at position 0 if anchored; with a gap it may
	// start anywhere — encoded by Gap on the first step skipping prefixes.
	return ok[0][0]
}

// Rule is φ → e.
type Rule struct {
	Pattern *Pattern
	Expr    *regex.Expr
}

// Schema is a pattern-based schema: an ordered list of rules plus the set
// of allowed root labels (BonXai's root declaration; empty means any label
// may be the root).
type Schema struct {
	Rules []Rule
	Roots map[string]bool
}

// Root declares allowed root labels and returns the schema.
func (s *Schema) Root(labels ...string) *Schema {
	if s.Roots == nil {
		s.Roots = map[string]bool{}
	}
	for _, l := range labels {
		s.Roots[l] = true
	}
	return s
}

// Add appends the rule pattern → expr (both given textually) and returns
// the schema.
func (s *Schema) Add(pattern, expr string) *Schema {
	s.Rules = append(s.Rules, Rule{MustParsePattern(pattern), regex.MustParse(expr)})
	return s
}

func (s *Schema) String() string {
	var b strings.Builder
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "%s -> %s\n", r.Pattern, r.Expr)
	}
	return b.String()
}

// Valid reports whether t satisfies the schema: every node is selected by
// some rule, and the children of each node match every selecting rule's
// expression.
func (s *Schema) Valid(t *tree.Node) bool {
	return s.Validate(t) == nil
}

// Validate explains the first violation, or returns nil.
func (s *Schema) Validate(t *tree.Node) error {
	if s.Roots != nil && !s.Roots[t.Label] {
		return fmt.Errorf("bonxai: root label %q not allowed", t.Label)
	}
	ms := make([]*automata.Matcher, len(s.Rules))
	for i, r := range s.Rules {
		ms[i] = automata.NewMatcher(r.Expr)
	}
	var fail error
	t.WalkPath(func(n *tree.Node, anc []string) {
		if fail != nil {
			return
		}
		path := append(append([]string{}, anc...), n.Label)
		selected := false
		for i, r := range s.Rules {
			if !r.Pattern.Matches(path) {
				continue
			}
			selected = true
			if ok, _ := ms[i].Accepts(context.Background(), n.ChildWord()); !ok {
				fail = fmt.Errorf("bonxai: children %v of node at %s violate rule %s -> %s",
					n.ChildWord(), strings.Join(path, "/"), r.Pattern, r.Expr)
				return
			}
		}
		if !selected {
			fail = fmt.Errorf("bonxai: node at %s matched by no rule", strings.Join(path, "/"))
		}
	})
	return fail
}

// ---------------------------------------------------------------------------
// Compilation to a single-type EDTD: the "vertical" automaton.
//
// Every pattern compiles to an NFA over labels that reads root-to-node
// paths. A node's TYPE is the tuple of per-pattern reached state sets —
// deterministic in the path, so the resulting EDTD is single-type by
// construction. The content model of a type is the intersection of the
// expressions of all rules whose pattern accepts in that type, with labels
// replaced by successor types. Types where no rule accepts get the empty
// content language ∅, rejecting every node (condition (1)).
// ---------------------------------------------------------------------------

// patNFA is a pattern's path automaton; state 0 is initial, state len(Steps)
// is accepting.
type patNFA struct {
	steps []Step
}

// stepSets advances a state set by one label.
func (a *patNFA) stepSets(states map[int]bool, label string) map[int]bool {
	next := map[int]bool{}
	for q := range states {
		if q < len(a.steps) {
			st := a.steps[q]
			if st.Label == "*" || st.Label == label {
				next[q+1] = true
			}
			if st.Gap {
				// stay before step q, consuming label in the gap
				next[q] = true
			}
		}
	}
	// A gap BEFORE step q means state q can also self-loop; gaps after the
	// final step do not exist.
	return next
}

func (a *patNFA) initial() map[int]bool { return map[int]bool{0: true} }

func (a *patNFA) accepting(states map[int]bool) bool { return states[len(a.steps)] }

// ToEDTD compiles the schema into an equivalent single-type EDTD over the
// given label alphabet (the labels that documents may use; Figure 2's
// alphabet is {a,…,k}). Content expressions are synthesized from the
// intersection DFA of the selecting rules and are language-equivalent, not
// syntactically identical, to hand-written ones.
func (s *Schema) ToEDTD(alphabet []string) *edtd.EDTD {
	alphabet = append([]string(nil), alphabet...) // the caller's order stays
	sort.Strings(alphabet)
	nfas := make([]*patNFA, len(s.Rules))
	for i, r := range s.Rules {
		nfas[i] = &patNFA{steps: r.Pattern.Steps}
	}
	type vstate struct {
		label string
		sets  []map[int]bool
	}
	key := func(v vstate) string {
		var b strings.Builder
		b.WriteString(v.label)
		for _, set := range v.sets {
			b.WriteByte('|')
			var qs []int
			for q := range set {
				qs = append(qs, q)
			}
			sort.Ints(qs)
			for _, q := range qs {
				fmt.Fprintf(&b, "%d,", q)
			}
		}
		return b.String()
	}
	out := edtd.New()
	seen := map[string]string{} // vstate key -> type name
	typeCounter := 0
	var build func(v vstate) string
	build = func(v vstate) string {
		k := key(v)
		if t, ok := seen[k]; ok {
			return t
		}
		typeCounter++
		typ := fmt.Sprintf("%s#%d", v.label, typeCounter)
		seen[k] = typ
		// Which rules select nodes in this vertical state?
		var selected []*regex.Expr
		for i, a := range nfas {
			if a.accepting(v.sets[i]) {
				selected = append(selected, s.Rules[i].Expr)
			}
		}
		var content *regex.Expr
		if len(selected) == 0 {
			content = regex.NewEmpty() // condition (1) fails: reject the node
		} else {
			content = intersectExprs(selected)
		}
		// Successor vertical states per label; replace labels by types.
		succType := map[string]string{}
		for _, lab := range alphabet {
			next := vstate{label: lab, sets: make([]map[int]bool, len(nfas))}
			for i, a := range nfas {
				next.sets[i] = a.stepSets(v.sets[i], lab)
			}
			// Only build successor types for labels that can occur in the
			// content language (keeps the EDTD small).
			if exprUsesLabel(content, lab) {
				succType[lab] = build(next)
			}
		}
		typed := content.Clone()
		typed.Walk(func(x *regex.Expr) {
			if x.Kind == regex.Symbol {
				if t, ok := succType[x.Sym]; ok {
					x.Sym = t
				}
			}
		})
		out.AddType(typ, v.label, typed)
		return typ
	}
	for _, lab := range alphabet {
		if s.Roots != nil && !s.Roots[lab] {
			continue
		}
		root := vstate{label: lab, sets: make([]map[int]bool, len(nfas))}
		for i, a := range nfas {
			root.sets[i] = a.stepSets(a.initial(), lab)
		}
		// If no rule selects a root labeled lab, the root type's ∅ content
		// rejects every such tree, encoding condition (1).
		typ := build(root)
		out.AddStart(typ)
	}
	return out
}

func exprUsesLabel(e *regex.Expr, lab string) bool {
	found := false
	e.Walk(func(x *regex.Expr) {
		if x.Kind == regex.Symbol && x.Sym == lab {
			found = true
		}
	})
	return found
}

// intersectExprs returns an expression for the intersection of the given
// languages, via the product DFA and state elimination.
func intersectExprs(es []*regex.Expr) *regex.Expr {
	if len(es) == 1 {
		return es[0]
	}
	d := automata.ToDFA(es[0])
	for _, e := range es[1:] {
		d = automata.Intersect(d, automata.ToDFA(e)).Minimize()
	}
	return determinism.SynthesizeFromDFA(d)
}

// Figure2b returns the pattern-based schema of Figure 2b:
//
//	a      → b + c
//	b      → e d f
//	c      → e d f
//	d      → g h i
//	//b//h → j
//	//c//h → k
//
// plus leaf rules (e, f, g, i, j, k → ε) so that every node of Figure 2's
// documents is selected, as required by the semantics.
func Figure2b() *Schema {
	s := &Schema{}
	s.Add("a", "b + c").
		Add("b", "e d f").
		Add("c", "e d f").
		Add("d", "g h i").
		Add("//b//h", "j").
		Add("//c//h", "k").
		Add("e", "<eps>").
		Add("f", "<eps>").
		Add("g", "<eps>").
		Add("i", "<eps>").
		Add("j", "<eps>").
		Add("k", "<eps>").
		Root("a")
	return s
}
