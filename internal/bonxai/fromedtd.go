package bonxai

import (
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/edtd"
)

// FromEDTD converts a single-type EDTD into an equivalent pattern-based
// schema — the Figure 2a → Figure 2b direction of Section 4.4 ("the main
// conceptual idea behind BonXai is to specify the Figure 2a schema as the
// set of rules in Figure 2b"). It succeeds when every pair of same-label
// types with different content is separated by a bounded ancestor-label
// context (Bex et al. observed depth ≤ 2 in all real-world XSDs); it
// returns (nil, false) otherwise.
//
// For a type t whose content is determined by its k nearest ancestor
// labels ℓ1 (parent) … ℓk, the emitted rule is
//
//	//ℓk/…/ℓ1/μ(t) → μ(ρ(t)),
//
// with plain-label rules for context-independent types.
func FromEDTD(d *edtd.EDTD, maxContext int) (*Schema, bool) {
	if !d.IsSingleType() {
		return nil, false
	}
	k := d.TypeDependencyDepth(maxContext)
	if k < 0 {
		return nil, false
	}
	// Only realizable types occur in valid trees, so only they get contexts.
	real := d.Realizable()
	contexts := d.Contexts(k, real)
	schema := &Schema{}
	// group same-label types: when all reachable same-label types share a
	// language-equivalent content we can emit a bare-label rule; otherwise
	// one rule per context.
	byLabel := map[string][]string{}
	for _, t := range d.Types() {
		if len(contexts[t]) > 0 {
			byLabel[d.Label(t)] = append(byLabel[d.Label(t)], t)
		}
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		ts := byLabel[l]
		sort.Strings(ts)
		if allEquivalentContent(d, ts) {
			// the label's content is context-independent: one bare rule
			schema.Rules = append(schema.Rules, Rule{
				Pattern: MustParsePattern(l),
				Expr:    d.LabelRule(ts[0]),
			})
			continue
		}
		// context-dependent label: one rule per (type, context). Contexts
		// with fewer than k parts were not truncated, so they reach the
		// root and the pattern can (and must) be anchored.
		for _, t := range ts {
			ctxs := make([]string, 0, len(contexts[t]))
			for c := range contexts[t] {
				ctxs = append(ctxs, c)
			}
			sort.Strings(ctxs)
			for _, ctx := range ctxs {
				pat, err := ParsePattern(contextPattern(ctx, l, k))
				if err != nil {
					return nil, false
				}
				schema.Rules = append(schema.Rules, Rule{
					Pattern: pat,
					Expr:    d.LabelRule(t),
				})
			}
		}
	}
	// roots
	for s := range d.Start {
		if real[s] {
			schema.Root(d.Label(s))
		}
	}
	if schema.Roots == nil {
		schema.Roots = map[string]bool{}
	}
	return schema, true
}

// allEquivalentContent reports whether all the types' label-projected
// contents define the same language.
func allEquivalentContent(d *edtd.EDTD, ts []string) bool {
	for i := 1; i < len(ts); i++ {
		if !automata.Equivalent(d.LabelRule(ts[0]), d.LabelRule(ts[i])) {
			return false
		}
	}
	return true
}

// contextPattern renders the nearest-first ancestor context ℓ1/…/ℓj and
// the node label. A full-length context (j = k) may have been truncated,
// so the pattern floats: //ℓk/…/ℓ1/label. A shorter context reaches the
// root, so the pattern is anchored exactly: /ℓj/…/ℓ1/label.
func contextPattern(ctx, label string, k int) string {
	if ctx == "" {
		return "/" + label // at the root
	}
	parts := strings.Split(ctx, "/")
	short := len(parts) < k
	// reverse: furthest ancestor first
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	if short {
		return "/" + strings.Join(parts, "/") + "/" + label
	}
	return "//" + strings.Join(parts, "/") + "/" + label
}
