package jsonschema

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// Containment for JSON Schema. Section 4.5 cites "early work on JSON
// schema containment" (Fruth et al.) and notes the area is young: unlike
// the principled XML machinery, no complete practical decision procedure
// exists for full JSON Schema. This file implements the pragmatic checker
// such work uses: a sound structural subsumption test (answering
// Contained) combined with randomized refutation (answering NotContained
// with a concrete witness document), and Unknown otherwise.

// Verdict is the three-valued containment answer.
type Verdict int

// Containment verdicts.
const (
	Unknown Verdict = iota
	Contained
	NotContained
)

func (v Verdict) String() string {
	switch v {
	case Contained:
		return "contained"
	case NotContained:
		return "not contained"
	}
	return "unknown"
}

// Contains checks whether every document valid for s1 is valid for s2.
// On NotContained the returned witness is a JSON document accepted by s1
// and rejected by s2.
func Contains(s1, s2 *Schema, samples int, seed int64) (Verdict, string) {
	return ContainsCtx(context.Background(), s1, s2, samples, seed)
}

// ContainsCtx is Contains under a (possibly traced) context: it records
// a "jsonschema.contains" span accounting the sampling work — documents
// generated, documents that actually validated against s1 (the
// generator is best-effort), and whether the verdict came from a
// refuting sample or the structural subsumption pass. The verdict
// itself never depends on the context; the work is bounded by the
// sample budget, so no cancellation checkpoints are needed.
func ContainsCtx(ctx context.Context, s1, s2 *Schema, samples int, seed int64) (Verdict, string) {
	_, span := obs.StartSpan(ctx, "jsonschema.contains")
	defer span.Finish()
	generated := span.Counter("samples_generated")
	checked := span.Counter("samples_checked")
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		doc, ok := s1.generate(r, s1, 6)
		if !ok {
			continue
		}
		generated.Inc()
		raw, err := json.Marshal(doc)
		if err != nil {
			continue
		}
		// the generator is best-effort: double-check against s1
		if !s1.valid(s1, doc) {
			continue
		}
		checked.Inc()
		if !s2.valid(s2, doc) {
			span.SetAttr("decided_by", "sample_refutation")
			return NotContained, string(raw)
		}
	}
	if subsumes(s1, s1, s2, s2, 16) {
		span.SetAttr("decided_by", "structural_subsumption")
		return Contained, ""
	}
	span.SetAttr("decided_by", "unknown")
	return Unknown, ""
}

// generate produces a random document satisfying the schema when it can;
// ok=false when the fragment is too entangled to construct directly.
func (root *Schema) generate(r *rand.Rand, s *Schema, depth int) (interface{}, bool) {
	if depth <= 0 {
		return nil, false
	}
	if s.BoolSchema != nil {
		if *s.BoolSchema {
			return "free", true
		}
		return nil, false
	}
	if s.Ref != "" {
		t, err := root.resolve(s.Ref)
		if err != nil {
			return nil, false
		}
		return root.generate(r, t, depth-1)
	}
	if len(s.Enum) > 0 {
		return s.Enum[r.Intn(len(s.Enum))], true
	}
	if len(s.AnyOf) > 0 {
		return root.generate(r, s.AnyOf[r.Intn(len(s.AnyOf))], depth-1)
	}
	if len(s.OneOf) > 0 {
		return root.generate(r, s.OneOf[r.Intn(len(s.OneOf))], depth-1)
	}
	if len(s.AllOf) > 0 || s.Not != nil {
		// constructive generation through conjunction/negation is where
		// completeness ends; rely on the structural check instead
		return nil, false
	}
	switch s.Type {
	case "string", "":
		if s.Type == "" && (len(s.Properties) > 0 || len(s.Required) > 0) {
			return root.generateObject(r, s, depth)
		}
		return fmt.Sprintf("s%d", r.Intn(100)), true
	case "integer":
		return json.Number(fmt.Sprintf("%d", r.Intn(1000))), true
	case "number":
		return json.Number(fmt.Sprintf("%d.%d", r.Intn(100), r.Intn(10))), true
	case "boolean":
		return r.Intn(2) == 0, true
	case "null":
		return nil, true
	case "array":
		n := r.Intn(3)
		arr := make([]interface{}, 0, n)
		for i := 0; i < n; i++ {
			if s.Items != nil {
				el, ok := root.generate(r, s.Items, depth-1)
				if !ok {
					return nil, false
				}
				arr = append(arr, el)
			} else {
				arr = append(arr, json.Number("1"))
			}
		}
		return arr, true
	case "object":
		return root.generateObject(r, s, depth)
	}
	return nil, false
}

func (root *Schema) generateObject(r *rand.Rand, s *Schema, depth int) (interface{}, bool) {
	obj := map[string]interface{}{}
	for _, req := range s.Required {
		sub, ok := s.Properties[req]
		if !ok {
			// unconstrained required property: draw a random-typed value so
			// that a tighter right-hand schema can be refuted
			obj[req] = randomScalar(r)
			continue
		}
		v, ok := root.generate(r, sub, depth-1)
		if !ok {
			return nil, false
		}
		obj[req] = v
	}
	// sprinkle optional declared properties, in name order: every draw
	// consumes randomness, so map order would make the witness, and even
	// the verdict, differ between runs with the same seed
	names := make([]string, 0, len(s.Properties))
	for name := range s.Properties {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, done := obj[name]; done {
			continue
		}
		if r.Float64() < 0.5 {
			v, ok := root.generate(r, s.Properties[name], depth-1)
			if !ok {
				continue
			}
			obj[name] = v
		}
	}
	// schema-mixed: occasionally add an undeclared property, unless the
	// schema is schema-full
	if (s.AdditionalProperties == nil || *s.AdditionalProperties) && r.Float64() < 0.3 {
		obj["extra_property"] = json.Number("7")
	}
	return obj, true
}

// subsumes is a SOUND structural sufficient condition for L(a) ⊆ L(b):
// every constraint of b is implied by a constraint of a. It returns false
// whenever implication cannot be established (not a refutation).
func subsumes(rootA, a *Schema, rootB, b *Schema, fuel int) bool {
	if fuel <= 0 {
		return false
	}
	if b.BoolSchema != nil {
		return *b.BoolSchema
	}
	if a.BoolSchema != nil && !*a.BoolSchema {
		return true // empty language is contained in anything
	}
	if a.Ref != "" {
		t, err := rootA.resolve(a.Ref)
		if err != nil {
			return false
		}
		return subsumes(rootA, t, rootB, b, fuel-1)
	}
	if b.Ref != "" {
		t, err := rootB.resolve(b.Ref)
		if err != nil {
			return false
		}
		return subsumes(rootA, a, rootB, t, fuel-1)
	}
	// b's allOf: every conjunct must be implied
	for _, sub := range b.AllOf {
		if !subsumes(rootA, a, rootB, sub, fuel-1) {
			return false
		}
	}
	// b's anyOf: some branch must subsume all of a (sufficient condition)
	if len(b.AnyOf) > 0 {
		ok := false
		for _, sub := range b.AnyOf {
			if subsumes(rootA, a, rootB, sub, fuel-1) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(b.OneOf) > 0 || b.Not != nil {
		return false // implication through negation: out of the fragment
	}
	// type
	if b.Type != "" {
		if a.Type == "" {
			return false
		}
		if a.Type != b.Type && !(a.Type == "integer" && b.Type == "number") {
			return false
		}
	}
	// required: b's requirements must already be required by a
	reqA := map[string]bool{}
	for _, x := range a.Required {
		reqA[x] = true
	}
	for _, x := range b.Required {
		if !reqA[x] {
			return false
		}
	}
	// properties: for every property b constrains, a must constrain it at
	// least as tightly — or a must forbid extra properties entirely
	for name, subB := range b.Properties {
		if isTrivial(subB) {
			continue
		}
		subA, ok := a.Properties[name]
		if !ok {
			return false
		}
		if !subsumes(rootA, subA, rootB, subB, fuel-1) {
			return false
		}
	}
	// additionalProperties: if b is schema-full, a must be schema-full
	// with a's declared properties ⊆ b's
	if b.AdditionalProperties != nil && !*b.AdditionalProperties {
		if a.AdditionalProperties == nil || *a.AdditionalProperties {
			return false
		}
		for name := range a.Properties {
			if _, ok := b.Properties[name]; !ok {
				return false
			}
		}
	}
	// items
	if b.Items != nil && !isTrivial(b.Items) {
		if a.Items == nil {
			return false
		}
		if !subsumes(rootA, a.Items, rootB, b.Items, fuel-1) {
			return false
		}
	}
	// enum: a's values must all be in b's enum
	if len(b.Enum) > 0 {
		if len(a.Enum) == 0 {
			return false
		}
		inB := map[string]bool{}
		for _, v := range b.Enum {
			j, _ := json.Marshal(v)
			inB[string(j)] = true
		}
		for _, v := range a.Enum {
			j, _ := json.Marshal(v)
			if !inB[string(j)] {
				return false
			}
		}
	}
	return true
}

// randomScalar draws a value of a random JSON type.
func randomScalar(r *rand.Rand) interface{} {
	switch r.Intn(4) {
	case 0:
		return json.Number(fmt.Sprintf("%d", r.Intn(100)))
	case 1:
		return fmt.Sprintf("str%d", r.Intn(100))
	case 2:
		return r.Intn(2) == 0
	default:
		return []interface{}{json.Number("1")}
	}
}

// isTrivial reports schemas with no constraints (accept everything).
func isTrivial(s *Schema) bool {
	if s == nil {
		return true
	}
	if s.BoolSchema != nil {
		return *s.BoolSchema
	}
	return s.Type == "" && len(s.Properties) == 0 && len(s.Required) == 0 &&
		s.Items == nil && len(s.Enum) == 0 && s.Not == nil &&
		len(s.AllOf) == 0 && len(s.AnyOf) == 0 && len(s.OneOf) == 0 &&
		s.Ref == "" && s.AdditionalProperties == nil
}
