// Package edtd implements extended DTDs (Definition 4.10) and single-type
// EDTDs (Definition 4.12) — the paper's structural abstraction of XML
// Schema (Section 4.3): an EDTD is (Σ, Γ, ρ, S, μ) where (Γ, ρ, S) is a DTD
// over the type alphabet and μ maps types to labels; a tree is valid iff
// some typing of its nodes is valid w.r.t. the underlying DTD.
//
// The package provides validation for general EDTDs (bottom-up computation
// of possible type sets — an unranked tree automaton run), the single-type
// and Element-Declarations-Consistent checks, deterministic top-down typing
// for single-type EDTDs, and the DTD structural-expressibility test behind
// the Bex et al. statistic of Section 4.4 (25 of 30 real XSDs are
// structurally equivalent to a DTD).
package edtd

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/tree"
)

// EDTD is an extended DTD (Definition 4.10). Rules are indexed by type;
// Mu maps each type to the label it represents. Types without a rule
// default to ε-content.
type EDTD struct {
	Rules map[string]*regex.Expr // ρ : Γ → RE over Γ
	Start map[string]bool        // S ⊆ Γ
	Mu    map[string]string      // μ : Γ → Σ
}

// New returns an empty EDTD.
func New() *EDTD {
	return &EDTD{Rules: map[string]*regex.Expr{}, Start: map[string]bool{}, Mu: map[string]string{}}
}

// AddType declares a type with its label and content model.
func (d *EDTD) AddType(typ, label string, content *regex.Expr) *EDTD {
	d.Rules[typ] = content
	d.Mu[typ] = label
	return d
}

// AddStart marks a type as a start type.
func (d *EDTD) AddStart(typ string) *EDTD {
	d.Start[typ] = true
	return d
}

// Types returns the sorted set Γ.
func (d *EDTD) Types() []string {
	set := map[string]bool{}
	for t := range d.Rules {
		set[t] = true
	}
	for t := range d.Mu {
		set[t] = true
	}
	for t := range d.Start {
		set[t] = true
	}
	for _, e := range d.Rules {
		for _, t := range e.Alphabet() {
			set[t] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Label returns μ(typ); types never added via AddType map to themselves,
// so a plain DTD is the special case Γ = Σ, μ = id.
func (d *EDTD) Label(typ string) string {
	if l, ok := d.Mu[typ]; ok {
		return l
	}
	return typ
}

// Rule returns ρ(typ), defaulting to ε.
func (d *EDTD) Rule(typ string) *regex.Expr {
	if e, ok := d.Rules[typ]; ok {
		return e
	}
	return regex.NewEpsilon()
}

func (d *EDTD) String() string {
	var b strings.Builder
	for _, t := range d.Types() {
		if e, ok := d.Rules[t]; ok {
			fmt.Fprintf(&b, "%s[%s] -> %s\n", t, d.Label(t), e)
		}
	}
	return b.String()
}

// Valid reports whether t satisfies the EDTD (Definition 4.10): some
// witness typing exists. To validate many documents, Compile the EDTD
// once and call Compiled.Valid.
func (d *EDTD) Valid(t *tree.Node) bool {
	ok, _ := d.Compile().Valid(context.Background(), t)
	return ok
}

// Compiled is an EDTD compiled for validation: a Matcher per content
// model, built once, and the types of each label.
type Compiled struct {
	d        *EDTD
	byLabel  map[string][]string          // sorted
	matchers map[string]*automata.Matcher // by type
	tick     int                          // children stepped; the context is checked every 256
}

// Compile prepares d for validation. The result refers to d, which must
// not change while the result is in use, and is not safe for concurrent
// use.
func (d *EDTD) Compile() *Compiled {
	c := &Compiled{d: d, byLabel: map[string][]string{}, matchers: map[string]*automata.Matcher{}}
	for _, typ := range d.Types() {
		c.byLabel[d.Label(typ)] = append(c.byLabel[d.Label(typ)], typ)
		c.matchers[typ] = automata.NewMatcher(d.Rule(typ))
	}
	return c
}

// Valid reports whether t satisfies the EDTD, or returns ctx.Err() once
// a check between children finds it set.
func (c *Compiled) Valid(ctx context.Context, t *tree.Node) (bool, error) {
	types, err := c.possibleTypes(ctx, t)
	return slices.ContainsFunc(types, func(s string) bool { return c.d.Start[s] }), err
}

// possibleTypes returns, sorted, the types the root of t can take in a
// valid typing of its subtree: those of its label whose content model
// accepts some word of possible child types. It runs the Glushkov state
// sets of every candidate type over the children at once, bottom-up (an
// unranked tree automaton run).
func (c *Compiled) possibleTypes(ctx context.Context, t *tree.Node) ([]string, error) {
	cands := c.byLabel[t.Label]
	if len(cands) == 0 {
		return nil, nil
	}
	sets := make([][]int32, len(cands))
	for i, typ := range cands {
		sets[i] = c.matchers[typ].Start()
	}
	for _, ch := range t.Children {
		if c.tick++; c.tick%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		kids, err := c.possibleTypes(ctx, ch)
		if err != nil {
			return nil, err
		}
		live := false
		for i, typ := range cands {
			sets[i] = c.matchers[typ].StepAny(sets[i], kids)
			live = live || len(sets[i]) > 0
		}
		if !live {
			return nil, nil
		}
	}
	var out []string
	for i, typ := range cands {
		if c.matchers[typ].AnyFinal(sets[i]) {
			out = append(out, typ)
		}
	}
	return out, nil
}

// Witness returns a typed tree T^Γ with μ(T^Γ) = t witnessing validity
// (Definition 4.10), or nil when t is invalid. It tries start types and
// child types in sorted order, so its answer is a function of d and t.
func (d *EDTD) Witness(t *tree.Node) *tree.Node {
	c := d.Compile()
	for _, s := range keys(d.Start) {
		if d.Label(s) != t.Label {
			continue
		}
		if w := c.typeAs(t, s); w != nil {
			return w
		}
	}
	return nil
}

func (c *Compiled) typeAs(t *tree.Node, typ string) *tree.Node {
	childSets := make([][]string, len(t.Children))
	for i, ch := range t.Children {
		childSets[i], _ = c.possibleTypes(context.Background(), ch)
	}
	word, ok := childWordWitness(c.matchers[typ], childSets)
	if !ok {
		return nil
	}
	out := tree.New(typ)
	for i, ch := range t.Children {
		sub := c.typeAs(ch, word[i])
		if sub == nil {
			return nil
		}
		out.Add(sub)
	}
	return out
}

// childWordWitness returns the first word t1 … tn that m accepts with
// each ti in sets[i], by BFS over (child, state) pairs, stepping child
// types in the order of sets[i].
func childWordWitness(m *automata.Matcher, sets [][]string) ([]string, bool) {
	type key struct {
		pos   int
		state int32
	}
	type crumb struct {
		prev key
		typ  string
	}
	from := map[key]crumb{{0, 0}: {}}
	queue := []key{{0, 0}}
	for head := 0; head < len(queue); head++ {
		k := queue[head]
		if k.pos == len(sets) {
			if !m.AnyFinal([]int32{k.state}) {
				continue
			}
			word := make([]string, len(sets))
			for ; k.pos > 0; k = from[k].prev {
				word[k.pos-1] = from[k].typ
			}
			return word, true
		}
		for _, typ := range sets[k.pos] {
			for _, p := range m.Step([]int32{k.state}, typ) {
				nk := key{k.pos + 1, p}
				if _, seen := from[nk]; !seen {
					from[nk] = crumb{prev: k, typ: typ}
					queue = append(queue, nk)
				}
			}
		}
	}
	return nil, false
}

// IsSingleType reports whether the EDTD is a single-type EDTD
// (Definition 4.12): no regular expression ρ(t) — and not S either —
// contains two distinct types with the same label. This is XML Schema's
// Element Declarations Consistent constraint, so the EDTD is single-type
// exactly when EDCViolations finds nothing.
func (d *EDTD) IsSingleType() bool { return len(d.EDCViolations()) == 0 }

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EDCViolations returns, per rule, the pairs of distinct same-label types
// that violate XML Schema's Element Declarations Consistent constraint
// (Section 4.3's discussion of Example 4.11).
func (d *EDTD) EDCViolations() []string {
	var out []string
	check := func(where string, types []string) {
		seen := map[string]string{}
		for _, t := range types {
			l := d.Label(t)
			if prev, ok := seen[l]; ok && prev != t {
				out = append(out, fmt.Sprintf("%s: types %s and %s share label %s", where, prev, t, l))
			} else {
				seen[l] = t
			}
		}
	}
	check("start", keys(d.Start))
	for _, t := range d.Types() {
		if e, ok := d.Rules[t]; ok {
			check("rule "+t, e.Alphabet())
		}
	}
	sort.Strings(out)
	return out
}

// LabelRule returns μ(ρ(typ)): the content model of typ with every type
// replaced by its label.
func (d *EDTD) LabelRule(typ string) *regex.Expr {
	out := d.Rule(typ).Clone()
	out.Walk(func(x *regex.Expr) {
		if x.Kind == regex.Symbol {
			x.Sym = d.Label(x.Sym)
		}
	})
	return out
}

// ToDTD builds the candidate DTD obtained by erasing types: for every
// label a, ρ(a) is the union of μ(ρ(t)) over types t with μ(t) = a; the
// start labels are μ(S). L(EDTD) ⊆ L(ToDTD) always holds.
func (d *EDTD) ToDTD() *dtd.DTD {
	out := dtd.New()
	byLabel := map[string][]*regex.Expr{}
	for _, t := range d.Types() {
		if _, ok := d.Rules[t]; ok {
			l := d.Label(t)
			byLabel[l] = append(byLabel[l], d.LabelRule(t))
		}
	}
	for l, es := range byLabel {
		out.AddRule(l, regex.NewUnion(es...))
	}
	for s := range d.Start {
		out.AddStart(d.Label(s))
	}
	return out
}

// StructurallyDTDExpressible reports whether the EDTD is structurally
// equivalent to a DTD: all (used) types of the same label have
// language-equivalent label-projected content models. Bex et al.
// (Section 4.4) found 25 of 30 real-world XSDs in this class; the other
// five use types genuinely depending on the parent or grandparent label,
// as in Figure 2a.
func (d *EDTD) StructurallyDTDExpressible() bool {
	byLabel := map[string][]*regex.Expr{}
	for _, t := range d.reachableTypes() {
		byLabel[d.Label(t)] = append(byLabel[d.Label(t)], d.LabelRule(t))
	}
	for _, es := range byLabel {
		for i := 1; i < len(es); i++ {
			if !automata.Equivalent(es[0], es[i]) {
				return false
			}
		}
	}
	return true
}

// reachableTypes returns the types reachable from the start types through
// the rules.
func (d *EDTD) reachableTypes() []string {
	seen := map[string]bool{}
	var stack []string
	for s := range d.Start {
		seen[s] = true
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range d.Rule(t).Alphabet() {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return keys(seen)
}

// TypeDependencyDepth measures how deep the ancestor context must reach to
// determine a node's type: 0 when the EDTD is structurally a DTD (type =
// label), 1 when the parent's label suffices, 2 for grandparents, and -1
// when deeper context or genuine nondeterminism is needed. Bex et al.
// observed only values 0..2 in real XSDs (Section 4.4).
func (d *EDTD) TypeDependencyDepth(maxDepth int) int {
	if d.StructurallyDTDExpressible() {
		return 0
	}
	for k := 1; k <= maxDepth; k++ {
		if d.typesDeterminedByContext(k) {
			return k
		}
	}
	return -1
}

// typesDeterminedByContext reports whether any two distinct same-label
// types with non-equivalent content always occur under distinct label
// contexts of length k (i.e. the k nearest ancestor labels determine the
// content model).
func (d *EDTD) typesDeterminedByContext(k int) bool {
	contexts := d.Contexts(k, nil)
	// two same-label types with different content must have disjoint contexts
	types := d.reachableTypes()
	for i := 0; i < len(types); i++ {
		for j := i + 1; j < len(types); j++ {
			a, b := types[i], types[j]
			if d.Label(a) != d.Label(b) {
				continue
			}
			if automata.Equivalent(d.LabelRule(a), d.LabelRule(b)) {
				continue
			}
			for ctx := range contexts[a] {
				if contexts[b][ctx] {
					return false
				}
			}
		}
	}
	return true
}

// Contexts returns, per type, the ancestor-label contexts under which the
// type occurs: the labels of its k nearest ancestors, nearest first,
// joined by "/" ("" at the root). It propagates contexts from the start
// types to a fixpoint; a non-nil keep restricts them to the types in keep.
func (d *EDTD) Contexts(k int, keep map[string]bool) map[string]map[string]bool {
	types := d.Types()
	contexts := make(map[string]map[string]bool, len(types))
	for _, t := range types {
		contexts[t] = map[string]bool{}
	}
	for s := range d.Start {
		if keep == nil || keep[s] {
			contexts[s][""] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range types {
			for ctx := range contexts[t] {
				child := pushContext(ctx, d.Label(t), k)
				for _, u := range d.Rule(t).Alphabet() {
					if (keep == nil || keep[u]) && !contexts[u][child] {
						contexts[u][child] = true
						changed = true
					}
				}
			}
		}
	}
	return contexts
}

// pushContext prepends label to the context ctx and truncates it to k
// labels.
func pushContext(ctx, label string, k int) string {
	parts := []string{label}
	if ctx != "" {
		parts = append(parts, strings.Split(ctx, "/")...)
	}
	if len(parts) > k {
		parts = parts[:k]
	}
	return strings.Join(parts, "/")
}
