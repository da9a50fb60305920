// Package jsonschema implements the logic-based JSON Schema fragment
// discussed in Section 4.5 of "Towards Theory for Real-World Data": schemas
// are logical combinations of assertions on objects, arrays and base values
// (after Bourhis et al.). The package provides a validator and the corpus
// analyses of the two studies the paper reports:
//
//   - Maiwald, Riedle & Scherzinger: 159 schemas — 26 recursive; the
//     non-recursive ones allow maximal nesting depths from 3 to 43 with an
//     average of 11; schema-full mode (additionalProperties: false) was
//     explicit in 8 schemas.
//   - Baazizi et al.: 11.5k schemas — negation ("not") used in 2.6% of
//     files, often as a workaround for missing features such as a
//     "forbidden" keyword (¬required) or implication (¬x ∨ y).
package jsonschema

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Schema is a JSON Schema node in the supported fragment: type, properties,
// required, items, enum, const, not, allOf/anyOf/oneOf, $ref, and
// additionalProperties.
type Schema struct {
	// Type restricts the value kind: "object", "array", "string",
	// "number", "integer", "boolean", "null". Empty means unconstrained.
	Type string
	// Properties maps object keys to their sub-schema.
	Properties map[string]*Schema
	propOrder  []string
	// Required lists keys that must be present.
	Required []string
	// AdditionalProperties false forbids keys beyond Properties
	// (schema-full mode in the Maiwald et al. study; JSON Schema is
	// schema-mixed by default).
	AdditionalProperties *bool
	// Items constrains every array element.
	Items *Schema
	// Enum restricts to one of the given values (compared as JSON).
	Enum []interface{}
	// Not, AllOf, AnyOf, OneOf are the logical combinators.
	Not   *Schema
	AllOf []*Schema
	AnyOf []*Schema
	OneOf []*Schema
	// Ref refers to a definition: "#/definitions/name" or "#/$defs/name".
	Ref string
	// Definitions holds named sub-schemas (definitions / $defs).
	Definitions map[string]*Schema
	// True/False schemas: JSON Schema allows booleans as schemas.
	BoolSchema *bool
}

// Parse parses a JSON Schema document in the supported fragment.
func Parse(doc string) (*Schema, error) {
	var raw interface{}
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("jsonschema: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jsonschema: data after the top-level value")
	}
	return fromRaw(raw)
}

// MustParse panics on error.
func MustParse(doc string) *Schema {
	s, err := Parse(doc)
	if err != nil {
		panic(err)
	}
	return s
}

func fromRaw(raw interface{}) (*Schema, error) {
	switch v := raw.(type) {
	case bool:
		b := v
		return &Schema{BoolSchema: &b}, nil
	case map[string]interface{}:
		s := &Schema{}
		for key, val := range v {
			var err error
			switch key {
			case "type":
				if ts, ok := val.(string); ok {
					s.Type = ts
				} else {
					return nil, fmt.Errorf("jsonschema: unsupported union type %v", val)
				}
			case "properties":
				props, ok := val.(map[string]interface{})
				if !ok {
					return nil, fmt.Errorf("jsonschema: properties must be an object")
				}
				s.Properties = map[string]*Schema{}
				for name, sub := range props {
					s.Properties[name], err = fromRaw(sub)
					if err != nil {
						return nil, err
					}
					s.propOrder = append(s.propOrder, name)
				}
			case "required":
				arr, ok := val.([]interface{})
				if !ok {
					return nil, fmt.Errorf("jsonschema: required must be an array")
				}
				for _, x := range arr {
					str, ok := x.(string)
					if !ok {
						return nil, fmt.Errorf("jsonschema: required entries must be strings")
					}
					s.Required = append(s.Required, str)
				}
			case "additionalProperties":
				if b, ok := val.(bool); ok {
					s.AdditionalProperties = &b
				}
				// sub-schema form is treated as permissive (true)
			case "items":
				s.Items, err = fromRaw(val)
				if err != nil {
					return nil, err
				}
			case "enum":
				arr, ok := val.([]interface{})
				if !ok {
					return nil, fmt.Errorf("jsonschema: enum must be an array")
				}
				s.Enum = arr
			case "const":
				s.Enum = []interface{}{val}
			case "not":
				s.Not, err = fromRaw(val)
				if err != nil {
					return nil, err
				}
			case "allOf", "anyOf", "oneOf":
				arr, ok := val.([]interface{})
				if !ok {
					return nil, fmt.Errorf("jsonschema: %s must be an array", key)
				}
				var subs []*Schema
				for _, x := range arr {
					sub, err := fromRaw(x)
					if err != nil {
						return nil, err
					}
					subs = append(subs, sub)
				}
				switch key {
				case "allOf":
					s.AllOf = subs
				case "anyOf":
					s.AnyOf = subs
				case "oneOf":
					s.OneOf = subs
				}
			case "$ref":
				str, ok := val.(string)
				if !ok {
					return nil, fmt.Errorf("jsonschema: $ref must be a string")
				}
				s.Ref = str
			case "definitions", "$defs":
				defs, ok := val.(map[string]interface{})
				if !ok {
					return nil, fmt.Errorf("jsonschema: %s must be an object", key)
				}
				if s.Definitions == nil {
					s.Definitions = map[string]*Schema{}
				}
				for name, sub := range defs {
					s.Definitions[name], err = fromRaw(sub)
					if err != nil {
						return nil, err
					}
				}
			default:
				// annotations ($schema, title, description, …) are ignored
			}
		}
		return s, nil
	default:
		return nil, fmt.Errorf("jsonschema: schema must be an object or boolean")
	}
}

// resolve resolves a $ref against the root schema's definitions.
func (root *Schema) resolve(ref string) (*Schema, error) {
	for _, prefix := range []string{"#/definitions/", "#/$defs/"} {
		if strings.HasPrefix(ref, prefix) {
			name := ref[len(prefix):]
			if s, ok := root.Definitions[name]; ok {
				return s, nil
			}
			return nil, fmt.Errorf("jsonschema: unresolved $ref %q", ref)
		}
	}
	if ref == "#" {
		return root, nil
	}
	return nil, fmt.Errorf("jsonschema: unsupported $ref %q", ref)
}

// Validate checks a JSON document against the schema.
func (s *Schema) Validate(doc string) error {
	var val interface{}
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&val); err != nil {
		return fmt.Errorf("jsonschema: invalid JSON: %v", err)
	}
	if !s.valid(s, val) {
		return fmt.Errorf("jsonschema: document does not satisfy schema")
	}
	return nil
}

// valid implements the assertion semantics; root carries definitions.
func (root *Schema) valid(s *Schema, v interface{}) bool {
	if s.BoolSchema != nil {
		return *s.BoolSchema
	}
	if s.Ref != "" {
		target, err := root.resolve(s.Ref)
		if err != nil {
			return false
		}
		if !root.valid(target, v) {
			return false
		}
	}
	if s.Type != "" && !typeMatches(s.Type, v) {
		return false
	}
	if s.Enum != nil {
		ok := false
		for _, e := range s.Enum {
			if jsonEqual(e, v) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if obj, isObj := v.(map[string]interface{}); isObj {
		for _, req := range s.Required {
			if _, ok := obj[req]; !ok {
				return false
			}
		}
		for name, sub := range s.Properties {
			if val, ok := obj[name]; ok {
				if !root.valid(sub, val) {
					return false
				}
			}
		}
		if s.AdditionalProperties != nil && !*s.AdditionalProperties {
			for name := range obj {
				if _, declared := s.Properties[name]; !declared {
					return false
				}
			}
		}
	}
	if arr, isArr := v.([]interface{}); isArr && s.Items != nil {
		for _, el := range arr {
			if !root.valid(s.Items, el) {
				return false
			}
		}
	}
	if s.Not != nil && root.valid(s.Not, v) {
		return false
	}
	for _, sub := range s.AllOf {
		if !root.valid(sub, v) {
			return false
		}
	}
	if s.AnyOf != nil {
		ok := false
		for _, sub := range s.AnyOf {
			if root.valid(sub, v) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if s.OneOf != nil {
		n := 0
		for _, sub := range s.OneOf {
			if root.valid(sub, v) {
				n++
			}
		}
		if n != 1 {
			return false
		}
	}
	return true
}

func typeMatches(t string, v interface{}) bool {
	switch t {
	case "object":
		_, ok := v.(map[string]interface{})
		return ok
	case "array":
		_, ok := v.([]interface{})
		return ok
	case "string":
		_, ok := v.(string)
		return ok
	case "boolean":
		_, ok := v.(bool)
		return ok
	case "null":
		return v == nil
	case "number":
		_, ok := v.(json.Number)
		return ok
	case "integer":
		n, ok := v.(json.Number)
		if !ok {
			return false
		}
		_, err := n.Int64()
		return err == nil && !strings.ContainsAny(n.String(), ".eE")
	}
	return false
}

func jsonEqual(a, b interface{}) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}
