package jsonschema

import (
	"testing"

	"repro/internal/jsonlite"
	"repro/internal/tree"
)

// personsSchema describes the Figure 1b JSON document.
const personsSchema = `{
  "type": "object",
  "properties": {
    "persons": {
      "type": "array",
      "items": {
        "type": "object",
        "properties": {
          "name": {"type": "string"},
          "birthplace": {
            "type": "object",
            "properties": {
              "city": {"type": "string"},
              "state": {"type": "string"},
              "country": {"type": "string"}
            },
            "required": ["city", "state"]
          }
        },
        "required": ["name", "birthplace"]
      }
    }
  },
  "required": ["persons"]
}`

func TestValidateFigure1(t *testing.T) {
	s := MustParse(personsSchema)
	if err := s.Validate(jsonlite.Figure1JSON); err != nil {
		t.Fatalf("Figure 1b JSON should validate: %v", err)
	}
	bad := `{"persons": [{"name": "X", "birthplace": {"city": "Y"}}]}`
	if err := s.Validate(bad); err == nil {
		t.Error("missing state should fail")
	}
	if err := s.Validate(`{"people": []}`); err == nil {
		t.Error("missing persons should fail")
	}
}

func TestTypeAssertions(t *testing.T) {
	cases := []struct {
		schema, doc string
		ok          bool
	}{
		{`{"type": "integer"}`, `3`, true},
		{`{"type": "integer"}`, `3.5`, false},
		{`{"type": "number"}`, `3.5`, true},
		{`{"type": "string"}`, `"x"`, true},
		{`{"type": "string"}`, `3`, false},
		{`{"type": "boolean"}`, `true`, true},
		{`{"type": "null"}`, `null`, true},
		{`{"type": "array", "items": {"type": "integer"}}`, `[1,2,3]`, true},
		{`{"type": "array", "items": {"type": "integer"}}`, `[1,"x"]`, false},
		{`{"enum": [1, "a"]}`, `"a"`, true},
		{`{"enum": [1, "a"]}`, `2`, false},
		{`{"const": 5}`, `5`, true},
		{`true`, `{"anything": 1}`, true},
		{`false`, `1`, false},
	}
	for _, c := range cases {
		err := MustParse(c.schema).Validate(c.doc)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%s, %s): err=%v, want ok=%v", c.schema, c.doc, err, c.ok)
		}
	}
}

func TestLogicalCombinators(t *testing.T) {
	// Baazizi et al.: implication x ⇒ y encoded as ¬x ∨ y (anyOf with not).
	implication := `{
	  "anyOf": [
	    {"not": {"required": ["x"]}},
	    {"required": ["y"]}
	  ]
	}`
	s := MustParse(implication)
	if err := s.Validate(`{"x": 1, "y": 2}`); err != nil {
		t.Error("x∧y should satisfy x⇒y")
	}
	if err := s.Validate(`{"z": 1}`); err != nil {
		t.Error("¬x should satisfy x⇒y")
	}
	if err := s.Validate(`{"x": 1}`); err == nil {
		t.Error("x∧¬y should violate x⇒y")
	}
	oneOf := MustParse(`{"oneOf": [{"type": "string"}, {"type": "integer"}]}`)
	if err := oneOf.Validate(`"a"`); err != nil {
		t.Error("string satisfies oneOf")
	}
	if err := oneOf.Validate(`[1]`); err == nil {
		t.Error("array violates oneOf")
	}
	allOf := MustParse(`{"allOf": [{"required": ["a"]}, {"required": ["b"]}]}`)
	if err := allOf.Validate(`{"a":1,"b":2}`); err != nil {
		t.Error("allOf failed")
	}
	if err := allOf.Validate(`{"a":1}`); err == nil {
		t.Error("allOf should fail")
	}
}

func TestSchemaFullMode(t *testing.T) {
	// Maiwald et al.: schema-full = additionalProperties: false.
	full := MustParse(`{"type":"object","properties":{"a":{}},"additionalProperties":false}`)
	if err := full.Validate(`{"a":1}`); err != nil {
		t.Error("declared property rejected")
	}
	if err := full.Validate(`{"a":1,"b":2}`); err == nil {
		t.Error("extra property accepted in schema-full mode")
	}
	if !full.IsSchemaFull() {
		t.Error("IsSchemaFull = false")
	}
	mixed := MustParse(`{"type":"object","properties":{"a":{}}}`)
	if err := mixed.Validate(`{"a":1,"b":2}`); err != nil {
		t.Error("schema-mixed must allow extra properties")
	}
	if mixed.IsSchemaFull() {
		t.Error("IsSchemaFull = true for mixed schema")
	}
}

func TestRecursionAndDepth(t *testing.T) {
	recursive := MustParse(`{
	  "$ref": "#/definitions/node",
	  "definitions": {
	    "node": {
	      "type": "object",
	      "properties": {"children": {"type": "array", "items": {"$ref": "#/definitions/node"}}}
	    }
	  }
	}`)
	if !recursive.IsRecursive() {
		t.Error("tree schema should be recursive")
	}
	if _, ok := recursive.MaxNestingDepth(); ok {
		t.Error("recursive schema has unbounded depth")
	}
	if err := recursive.Validate(`{"children":[{"children":[]}]}`); err != nil {
		t.Errorf("recursive schema validation: %v", err)
	}

	flat := MustParse(personsSchema)
	if flat.IsRecursive() {
		t.Error("persons schema is not recursive")
	}
	d, ok := flat.MaxNestingDepth()
	if !ok || d != 5 {
		// root object → persons array → person object → birthplace object
		// → scalar leaf (city)
		t.Errorf("MaxNestingDepth = %d, %v; want 5", d, ok)
	}
}

// TestUnreachableRecursionIsNotRecursion checks that a recursive
// definition the root never references leaves the schema non-recursive:
// its documents are strings, one level deep.
func TestUnreachableRecursionIsNotRecursion(t *testing.T) {
	s := MustParse(`{"type":"string","definitions":{"n":{"type":"object","properties":{"c":{"$ref":"#/definitions/n"}}}}}`)
	if s.IsRecursive() {
		t.Error("IsRecursive = true for a cycle the root does not reach")
	}
	if d, ok := s.MaxNestingDepth(); !ok || d != 1 {
		t.Errorf("MaxNestingDepth = %d, %v; want 1, true", d, ok)
	}
	// the same definition, referenced from the root, is recursion
	r := MustParse(`{"type":"object","properties":{"m":{"$ref":"#/definitions/n"}},"definitions":{"n":{"type":"object","properties":{"c":{"$ref":"#/definitions/n"}}}}}`)
	if !r.IsRecursive() {
		t.Error("IsRecursive = false for a cycle the root reaches")
	}
}

func TestUsesNegation(t *testing.T) {
	if MustParse(personsSchema).UsesNegation() {
		t.Error("persons schema uses no negation")
	}
	forbidden := MustParse(`{"not": {"required": ["password"]}}`)
	if !forbidden.UsesNegation() {
		t.Error("negation not detected")
	}
	if err := forbidden.Validate(`{"user":"x"}`); err != nil {
		t.Error("document without password should pass")
	}
	if err := forbidden.Validate(`{"password":"x"}`); err == nil {
		t.Error("forbidden keyword present")
	}
}

func TestRunStudy(t *testing.T) {
	docs := []string{
		personsSchema,
		`{"not": {"required": ["x"]}}`,
		`{"type":"object","properties":{"a":{}},"additionalProperties":false}`,
		`{"$ref":"#/definitions/n","definitions":{"n":{"items":{"$ref":"#/definitions/n"},"type":"array"}}}`,
		`not even json`,
	}
	res := RunStudy(docs)
	if res.Total != 4 {
		t.Errorf("Total = %d, want 4 (one unparsable)", res.Total)
	}
	if res.Recursive != 1 || res.NegationUse != 1 || res.SchemaFull != 1 {
		t.Errorf("study = %+v", res)
	}
	if len(res.Depths) != 3 {
		t.Errorf("depths = %v", res.Depths)
	}
}

func TestJSONLiteTreeIntegration(t *testing.T) {
	tr := jsonlite.MustParse(jsonlite.Figure1JSON, jsonlite.Options{ItemLabel: "person"})
	want := tree.MustParse("$(persons(person(name, birthplace(city, state, country)), person(name, birthplace(city, state))))")
	if !tr.Equal(want) {
		t.Errorf("tree = %v\nwant %v", tr, want)
	}
}

func TestContainment(t *testing.T) {
	narrow := MustParse(`{"type":"object","properties":{"a":{"type":"integer"}},"required":["a"]}`)
	wide := MustParse(`{"type":"object","required":["a"]}`)
	if v, _ := Contains(narrow, wide, 50, 1); v != Contained {
		t.Errorf("narrow ⊆ wide: %v", v)
	}
	// the other direction must be refuted with a witness
	v, witness := Contains(wide, narrow, 200, 1)
	if v != NotContained {
		t.Errorf("wide ⊆ narrow should be refuted, got %v", v)
	}
	if witness == "" {
		t.Error("refutation must carry a witness")
	}
	// witness really separates the schemas
	if err := wide.Validate(witness); err != nil {
		t.Errorf("witness %s not valid for the left schema: %v", witness, err)
	}
	if err := narrow.Validate(witness); err == nil {
		t.Errorf("witness %s should violate the right schema", witness)
	}
}

func TestContainmentEnumAndTypes(t *testing.T) {
	small := MustParse(`{"enum":[1,2]}`)
	big := MustParse(`{"enum":[1,2,3]}`)
	if v, _ := Contains(small, big, 50, 2); v != Contained {
		t.Errorf("enum subset: %v", v)
	}
	if v, _ := Contains(big, small, 200, 2); v != NotContained {
		t.Errorf("enum superset: %v", v)
	}
	intNum := MustParse(`{"type":"integer"}`)
	num := MustParse(`{"type":"number"}`)
	if v, _ := Contains(intNum, num, 50, 3); v != Contained {
		t.Errorf("integer ⊆ number: %v", v)
	}
}

func TestContainmentSchemaFull(t *testing.T) {
	full := MustParse(`{"type":"object","properties":{"a":{}},"additionalProperties":false}`)
	mixed := MustParse(`{"type":"object","properties":{"a":{}}}`)
	if v, _ := Contains(full, mixed, 50, 4); v != Contained {
		t.Errorf("schema-full ⊆ schema-mixed: %v", v)
	}
	if v, _ := Contains(mixed, full, 300, 4); v != NotContained {
		t.Errorf("schema-mixed ⊄ schema-full (extra properties): %v", v)
	}
}

func TestContainmentUnknownIsHonest(t *testing.T) {
	// negation-based equivalences are beyond the structural fragment: the
	// checker must answer Unknown, never a wrong Contained.
	a := MustParse(`{"not":{"not":{"type":"string"}}}`)
	b := MustParse(`{"type":"string"}`)
	v, _ := Contains(a, b, 50, 5)
	if v == NotContained {
		t.Errorf("double negation of string IS string: must not refute, got %v", v)
	}
}

// TestContainmentDeterministicPerSeed pins that one seed gives one
// answer, witness included: the service caches these answers, so a
// cold run must reproduce what the cache serves. Property draws used to
// follow map order.
func TestContainmentDeterministicPerSeed(t *testing.T) {
	left := MustParse(`{"type":"object","properties":{"a":{"type":"integer"},"b":{"type":"string"},"c":{"type":"boolean"},"d":{"type":"number"},"e":{"type":"integer"}}}`)
	right := MustParse(`{"type":"object","properties":{"a":{"type":"string"}},"additionalProperties":false}`)
	v0, w0 := Contains(left, right, 200, 1)
	if v0 != NotContained {
		t.Fatalf("verdict %v, want a refutation", v0)
	}
	for i := 0; i < 30; i++ {
		if v, w := Contains(left, right, 200, 1); v != v0 || w != w0 {
			t.Fatalf("run %d answered (%v, %s), first run (%v, %s)", i, v, w, v0, w0)
		}
	}
}

// TestParseRejectsTrailingData checks that a schema document is one
// JSON value: anything but whitespace after it is an error.
func TestParseRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{`{"type":"integer"} x`, `{} {}`, `{} ]`, `true,`} {
		if _, err := Parse(doc); err == nil {
			t.Errorf("Parse(%q) accepted data after the top-level value", doc)
		}
	}
	for _, doc := range []string{`{"type":"integer"}`, " {}\n\t ", `true`} {
		if _, err := Parse(doc); err != nil {
			t.Errorf("Parse(%q): %v", doc, err)
		}
	}
}
