package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/kore"
	"repro/internal/regex"
	"repro/internal/schemastudy"
	"repro/internal/service"
)

// cacheSoundness checks that the service's caches never change an
// answer. Both caches are keyed on raw request fields, so a key
// collision or a stale entry would serve a wrong answer to every later
// caller. Each trial draws two containment (regex, kore, dtd or
// jsonschema), membership, validate or infer bodies of one kind, each
// with a variant that must get the same answer (other spacing and
// parentheses, or for infer other whitespace and field order; a
// containment variant is a new key and misses), and sends them in turn
// to a warm server with two-entry caches: first, exact repeats, the
// variants, a repeat after the verdicts were evicted and one after the
// compile entries were. Every response must equal a cache-less server's
// response to the same body, ignoring "cached" and "elapsed_ms". For
// expression bodies it also checks that parse(String(e)) renders the
// same text and is language-equivalent to e.
type cacheSoundness struct{}

func (cacheSoundness) Name() string { return "cache-soundness" }

func (cacheSoundness) Description() string {
	return "rwdserve with warm caches (repeats, canonical variants, after eviction) vs a cache-less server; parse(String(e)) ≡ e"
}

// probe is one request body and a variant of it that must get the same
// answer; exprs are the regular expressions it carries.
type probe struct {
	kind, path    string
	body, variant string
	exprs         []*regex.Expr
}

// side is one schema or expression of a request: its text, a variant
// text with the same parse, and the expression, if it is one.
type side struct {
	text, variant string
	expr          *regex.Expr
}

func exprSide(e *regex.Expr) side {
	return side{e.String(), spaced(e.String()), e}
}

// spaced is a variant of a rendered expression with the same parse:
// '|' for the infix '+', doubled spaces, and an outer parenthesis.
func spaced(s string) string {
	s = strings.ReplaceAll(s, " + ", " | ")
	return "( " + strings.ReplaceAll(s, " ", "  ") + " )"
}

func dtdSide(d *dtd.DTD) side {
	text := dtdText(d)
	variant := strings.ReplaceAll(text, ", ", " ,\n  ")
	return side{text, strings.ReplaceAll(variant, "<!ELEMENT ", "<!ELEMENT\t"), nil}
}

// dtdText renders d in <!ELEMENT> syntax, root first.
func dtdText(d *dtd.DTD) string {
	var b strings.Builder
	for _, l := range schemaLabels {
		e, ok := d.Rules[l]
		if !ok {
			continue
		}
		model := "EMPTY"
		if e.Kind != regex.Epsilon {
			model = "(" + dtdModel(e) + ")"
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s> ", l, model)
	}
	return strings.TrimSpace(b.String())
}

// dtdModel renders an ε-free expression as a DTD content model.
func dtdModel(e *regex.Expr) string {
	join := func(sep string) string {
		parts := make([]string, len(e.Subs))
		for i, s := range e.Subs {
			parts[i] = dtdModel(s)
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	switch e.Kind {
	case regex.Symbol:
		return e.Sym
	case regex.Concat:
		return join(", ")
	case regex.Union:
		return join(" | ")
	}
	sub := dtdModel(e.Sub())
	if k := e.Sub().Kind; k == regex.Star || k == regex.Plus || k == regex.Opt {
		sub = "(" + sub + ")"
	}
	return sub + map[regex.Kind]string{regex.Star: "*", regex.Plus: "+", regex.Opt: "?"}[e.Kind]
}

func jsonSide(src string) side {
	var b bytes.Buffer
	if err := json.Indent(&b, []byte(src), "", "  "); err != nil {
		panic("oracle: generated schema is not JSON: " + err.Error())
	}
	return side{src, b.String(), nil}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("oracle: unmarshalable request: " + err.Error())
	}
	return string(b)
}

// randomProbes draws two probes of one kind. Half the time the second
// shares the first's left side, expression or schema, so a cache key
// that drops a part of the request makes the two collide.
func randomProbes(r *rand.Rand) [2]probe {
	g := regex.DefaultGen(memberAlphabet)
	g.MaxDepth = 4
	kg := regex.DefaultGen([]string{"a", "b", "c", "d", "e", "f"})
	kg.MaxDepth = 3
	drawKORE := func() *regex.Expr {
		for {
			if e := kg.Random(r); kore.IsKORE(e, 2) {
				return e
			}
		}
	}
	jg := schemastudy.DefaultJSONSchemaGen()
	var engine string
	var draw func() side
	switch r.Intn(7) {
	case 0:
		engine, draw = "regex", func() side { return exprSide(g.Random(r)) }
	case 1:
		engine, draw = "kore", func() side { return exprSide(drawKORE()) }
	case 2:
		engine, draw = "dtd", func() side { return dtdSide(randomLayeredDTD(r)) }
	case 3:
		engine, draw = "jsonschema", func() side { return jsonSide(jg.Schema(r)) }
	case 4:
		return twoProbes(r, func(e side) probe {
			words := memberTrialWords(e.expr, r)
			word := words[r.Intn(len(words))]
			return probe{
				kind: "membership", path: "/v1/membership",
				body:    mustJSON(map[string]any{"expr": e.text, "word": word}),
				variant: mustJSON(map[string]any{"expr": e.variant, "word": word}),
				exprs:   []*regex.Expr{e.expr},
			}
		}, func() side { return exprSide(g.Random(r)) })
	case 5:
		return inferProbes(r, g)
	default:
		var d *dtd.DTD
		return twoProbes(r, func(s side) probe {
			var docs []string
			for i := 0; i < 3; i++ {
				if t := sampleDTDTree(d, r); t != nil {
					if r.Intn(2) == 0 {
						t = mutateTree(t, r)
					}
					docs = append(docs, t.String())
				}
			}
			docs = append(docs, schemaLabels[r.Intn(len(schemaLabels))])
			root := ""
			if r.Intn(4) == 0 {
				root = schemaLabels[r.Intn(len(schemaLabels))]
			}
			return probe{
				kind: "validate", path: "/v1/validate",
				body:    mustJSON(map[string]any{"kind": "dtd", "schema": s.text, "root": root, "docs": docs}),
				variant: mustJSON(map[string]any{"kind": "dtd", "schema": s.variant, "root": root, "docs": docs}),
			}
		}, func() side { d = randomLayeredDTD(r); return dtdSide(d) })
	}
	return twoProbes(r, func(left side) probe {
		right := draw()
		if engine == "regex" && r.Intn(2) == 0 {
			right = exprSide(regex.NewUnion(left.expr, right.expr)) // contained
		}
		var exprs []*regex.Expr
		if left.expr != nil {
			exprs = []*regex.Expr{left.expr, right.expr}
		}
		return probe{
			kind: "containment/" + engine, path: "/v1/containment",
			body:    mustJSON(map[string]string{"engine": engine, "left": left.text, "right": right.text}),
			variant: mustJSON(map[string]string{"engine": engine, "left": left.variant, "right": right.variant}),
			exprs:   exprs,
		}
	}, draw)
}

// inferProbes draws two /v1/infer probes. Each body's variant spells the
// same request with other whitespace and field order, and leaves out a
// zero k. Half the time the second probe carries the first's words in
// another order, or the same words with another k, so a key that drops
// k serves the first answer to the second. (A key that drops the order
// would go unseen: no sample is known on which a learner's answer
// depends on the word order.)
func inferProbes(r *rand.Rand, g *regex.Gen) [2]probe {
	algorithms := []string{"sore", "chare", "kore", "best-kore"}
	build := func(algorithm string, k int, words [][]string) probe {
		indented, err := json.MarshalIndent(words, " ", "\t")
		if err != nil {
			panic("oracle: unmarshalable words: " + err.Error())
		}
		variant := fmt.Sprintf("{ \"words\" :\n %s,\n  \"algorithm\": %q", indented, algorithm)
		if k != 0 {
			variant += fmt.Sprintf(", \"k\" : %d", k)
		}
		return probe{
			kind: "infer/" + algorithm, path: "/v1/infer",
			body:    mustJSON(map[string]any{"algorithm": algorithm, "k": k, "words": words}),
			variant: variant + " }",
		}
	}
	drawWords := func() [][]string {
		words := memberTrialWords(g.Random(r), r)
		r.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
		return words[:1+r.Intn(min(6, len(words)))]
	}
	algorithm, k, words := algorithms[r.Intn(len(algorithms))], r.Intn(4), drawWords()
	first := build(algorithm, k, words)
	switch r.Intn(4) {
	case 0:
		reordered := append([][]string(nil), words...)
		r.Shuffle(len(reordered), func(i, j int) { reordered[i], reordered[j] = reordered[j], reordered[i] })
		return [2]probe{first, build(algorithm, k, reordered)}
	case 1:
		return [2]probe{first, build(algorithm, (k+1+r.Intn(3))%4, words)}
	}
	return [2]probe{first, build(algorithms[r.Intn(len(algorithms))], r.Intn(4), drawWords())}
}

// twoProbes builds two probes around sides from draw; the second reuses
// the first's side half the time.
func twoProbes(r *rand.Rand, build func(side) probe, draw func() side) [2]probe {
	first := draw()
	p := build(first)
	if r.Intn(2) == 0 {
		return [2]probe{p, build(first)}
	}
	return [2]probe{p, build(draw())}
}

func newOracleServer(cacheSize int) *service.Server {
	return service.New(service.Config{
		CacheSize:     cacheSize,
		TraceCapacity: -1,
		Logger:        log.New(io.Discard, "", 0),
	})
}

// answer is a response reduced to what must not depend on caching: the
// status and the body without "cached" and "elapsed_ms".
func answer(s *service.Server, path, body string) string {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
	}
	delete(m, "cached")
	delete(m, "elapsed_ms")
	return fmt.Sprintf("%d %s", rec.Code, mustJSON(m))
}

func (o cacheSoundness) Trial(r *rand.Rand) *Divergence {
	probes := randomProbes(r)
	for _, p := range probes {
		for _, e := range p.exprs {
			if d := roundTripDivergence(e, r); d != nil {
				return d
			}
		}
	}
	cold := newOracleServer(-1)
	var want [2]string
	for i, p := range probes {
		want[i] = answer(cold, p.path, p.body)
		if v := answer(cold, p.path, p.variant); v != want[i] {
			return &Divergence{
				Input:  fmt.Sprintf("%s body=%s variant=%s", p.path, p.body, p.variant),
				Detail: fmt.Sprintf("cache-less answers differ for the same canonical key: %s vs %s", want[i], v),
			}
		}
	}
	warm := newOracleServer(2)
	// Two unique containment requests evict every verdict of the
	// two-entry verdict cache and nothing else; two unique membership
	// requests do the same to the compile cache.
	fill := func(path string, bodies ...string) func() {
		return func() {
			for _, b := range bodies {
				answer(warm, path, b)
			}
		}
	}
	steps := []struct {
		name    string
		variant bool
		before  func()
	}{
		{"first", false, nil},
		{"repeat", false, nil},
		{"second repeat", false, nil},
		{"variant", true, nil},
		{"variant repeat", true, nil},
		{"after verdict eviction", false, fill("/v1/containment",
			`{"engine":"regex","left":"x1","right":"x1"}`, `{"engine":"regex","left":"x2","right":"x2"}`)},
		{"after compile eviction", false, fill("/v1/membership",
			`{"expr":"x1","word":[]}`, `{"expr":"x2","word":[]}`)},
		{"repeat after eviction", false, nil},
	}
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		for i, p := range probes {
			body := p.body
			if st.variant {
				body = p.variant
			}
			if got := answer(warm, p.path, body); got != want[i] {
				return &Divergence{
					Input:  fmt.Sprintf("%s bodies=%s, %s", p.path, probes[0].body, probes[1].body),
					Detail: fmt.Sprintf("%s (%s of body %d): warm server answered %s, cache-less server %s", p.kind, st.name, i, got, want[i]),
				}
			}
		}
	}
	kind := probes[0].kind
	if st := warm.CacheStats(); (strings.HasPrefix(kind, "containment/") || strings.HasPrefix(kind, "infer/")) && st.Hits == 0 {
		return &Divergence{
			Input:  fmt.Sprintf("%s body=%s", probes[0].path, probes[0].body),
			Detail: "the warm server never hit its verdict cache: the trial does not exercise the cache",
		}
	}
	return nil
}

// roundTripDivergence checks the property the trials' bodies rely on,
// since each side is sent as e.String(): String() is a fixpoint of
// parsing, and parse(String(e)) has the
// language of e — by the antichain engine in both directions and on
// words sampled from either side.
func roundTripDivergence(e *regex.Expr, r *rand.Rand) *Divergence {
	again, err := regex.Parse(e.String())
	if err != nil {
		return &Divergence{Input: e.String(), Detail: fmt.Sprintf("String() does not parse: %v", err)}
	}
	if again.String() != e.String() {
		return &Divergence{Input: e.String(), Detail: fmt.Sprintf("String() is not canonical: it re-renders as %q", again.String())}
	}
	if !automata.Equivalent(e, again) {
		return &Divergence{Input: e.String(), Detail: fmt.Sprintf("parse(String(e)) = %s is not equivalent to e", again)}
	}
	m1, m2 := automata.NewMatcher(e), automata.NewMatcher(again)
	for i := 0; i < 4; i++ {
		for _, x := range []*regex.Expr{e, again} {
			w, ok := regex.RandomWord(x, r)
			if !ok {
				continue
			}
			in1, _ := m1.Accepts(context.Background(), w)
			if in2, _ := m2.Accepts(context.Background(), w); in1 != in2 {
				return &Divergence{Input: e.String(), Detail: fmt.Sprintf("e and parse(String(e)) disagree on %q", w)}
			}
		}
	}
	return nil
}
