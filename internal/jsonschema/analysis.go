package jsonschema

import (
	"sort"

	"repro/internal/graph"
)

// This file implements the structural analyses of the two JSON Schema
// corpus studies quoted in Section 4.5.

// IsRecursive reports whether the schema is recursive: following $ref
// edges from the root (through properties, items, combinators and
// definitions) reaches a cycle. Definitions the root never reaches do
// not count: no document of the schema expands them. Maiwald et al.
// found 26 recursive schemas among 159.
func (s *Schema) IsRecursive() bool {
	refs := s.refTargets()
	return graph.CycleReachable([]string{"#"}, func(n string) []string { return refs[n] })
}

// refTargets maps each node ("#" or definition name) to the set of
// definition nodes its body references. Nested definitions are hoisted to
// the root in this fragment, so a body's walk skips them.
func (s *Schema) refTargets() map[string][]string {
	out := map[string][]string{}
	collect := func(node string, body *Schema) {
		set := map[string]bool{}
		anySub(body, false, func(x *Schema) bool {
			if x.Ref != "" {
				set[refName(x.Ref)] = true
			}
			return false
		})
		var ts []string
		for t := range set {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		out[node] = ts
	}
	collect("#", s)
	for name, def := range s.Definitions {
		collect(name, def)
	}
	return out
}

// anySub reports whether f holds for x or for a subschema below it, in
// properties, items, combinators and, when defs is set, definitions. It
// stops at the first subschema for which f holds.
func anySub(x *Schema, defs bool, f func(*Schema) bool) bool {
	if x == nil {
		return false
	}
	if f(x) {
		return true
	}
	for _, subs := range [][]*Schema{{x.Items, x.Not}, x.AllOf, x.AnyOf, x.OneOf} {
		for _, sub := range subs {
			if anySub(sub, defs, f) {
				return true
			}
		}
	}
	for _, sub := range x.Properties {
		if anySub(sub, defs, f) {
			return true
		}
	}
	if defs {
		for _, sub := range x.Definitions {
			if anySub(sub, defs, f) {
				return true
			}
		}
	}
	return false
}

func refName(ref string) string {
	for _, prefix := range []string{"#/definitions/", "#/$defs/"} {
		if len(ref) > len(prefix) && ref[:len(prefix)] == prefix {
			return ref[len(prefix):]
		}
	}
	return "#"
}

// MaxNestingDepth returns the maximal nesting depth of documents the
// schema describes (1 for a scalar schema, +1 per object/array level), or
// (0, false) for recursive schemas. Maiwald et al. measured depths 3–43
// with average 11 on non-recursive real-world schemas.
func (s *Schema) MaxNestingDepth() (int, bool) {
	if s.IsRecursive() {
		return 0, false
	}
	var depth func(x *Schema) int
	depth = func(x *Schema) int {
		if x == nil {
			return 0
		}
		if x.Ref != "" {
			if t, err := s.resolve(x.Ref); err == nil {
				return depth(t)
			}
			return 1
		}
		best := 1
		consider := func(d int) {
			if d > best {
				best = d
			}
		}
		for _, sub := range x.Properties {
			consider(1 + depth(sub))
		}
		if x.Items != nil {
			consider(1 + depth(x.Items))
		}
		for _, sub := range x.AllOf {
			consider(depth(sub))
		}
		for _, sub := range x.AnyOf {
			consider(depth(sub))
		}
		for _, sub := range x.OneOf {
			consider(depth(sub))
		}
		if x.Not != nil {
			consider(depth(x.Not))
		}
		return best
	}
	return depth(s), true
}

// UsesNegation reports whether "not" occurs anywhere in the schema —
// the feature Baazizi et al. found in 2.6% of 11.5k real schemas, often as
// a workaround (e.g. "forbidden" as not-required, implication as ¬x ∨ y).
func (s *Schema) UsesNegation() bool {
	return anySub(s, true, func(x *Schema) bool { return x.Not != nil })
}

// IsSchemaFull reports whether the schema explicitly uses schema-full mode
// somewhere (additionalProperties: false) — 8 of Maiwald et al.'s 159
// schemas did; JSON Schema is schema-mixed by default, in stark contrast
// with DTDs (where ANY appeared in only 1 of 103 schemas, Section 4.5).
func (s *Schema) IsSchemaFull() bool {
	return anySub(s, true, func(x *Schema) bool {
		return x.AdditionalProperties != nil && !*x.AdditionalProperties
	})
}

// StudyResult aggregates a schema-corpus analysis in the shape of the
// Section 4.5 studies.
type StudyResult struct {
	Total       int
	Recursive   int
	Depths      []int // nesting depths of the non-recursive schemas
	NegationUse int
	SchemaFull  int
}

// AverageDepth returns the mean nesting depth of non-recursive schemas.
func (r *StudyResult) AverageDepth() float64 {
	if len(r.Depths) == 0 {
		return 0
	}
	sum := 0
	for _, d := range r.Depths {
		sum += d
	}
	return float64(sum) / float64(len(r.Depths))
}

// RunStudy analyzes a corpus of schema documents; unparsable documents are
// skipped (real corpora contain errors, cf. Sahuguet's observation for
// DTDs).
func RunStudy(docs []string) *StudyResult {
	res := &StudyResult{}
	for _, doc := range docs {
		s, err := Parse(doc)
		if err != nil {
			continue
		}
		res.Total++
		if s.IsRecursive() {
			res.Recursive++
		} else if d, ok := s.MaxNestingDepth(); ok {
			res.Depths = append(res.Depths, d)
		}
		if s.UsesNegation() {
			res.NegationUse++
		}
		if s.IsSchemaFull() {
			res.SchemaFull++
		}
	}
	return res
}
