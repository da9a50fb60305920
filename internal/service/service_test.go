package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/cache"
	"repro/internal/regex"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and decodes the JSON response into out (if
// non-nil), returning the status code.
func post(t *testing.T, base, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

// adversarialContainment is a containment request the lazy antichain
// engine cannot finish within any test deadline: self-containment of
// the window-equality family (automata.AntichainHardExpr), whose
// subset-states are pairwise ⊆-incomparable, so pruning never fires and
// the search is exponential — k=16 needs tens of seconds.
func adversarialContainment(deadlineMS int) string {
	hard := automata.AntichainHardExpr(16)
	b, _ := json.Marshal(map[string]any{
		"engine": "regex", "left": hard, "right": hard, "deadline_ms": deadlineMS,
	})
	return string(b)
}

func TestContainmentRegex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp containmentResponse
	code := post(t, ts.URL, "/v1/containment",
		`{"engine":"regex","left":"a b","right":"a (b|c)"}`, &resp)
	if code != 200 || !resp.Contained || resp.Verdict != "contained" {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
	code = post(t, ts.URL, "/v1/containment",
		`{"engine":"regex","left":"a (b|c)","right":"a b"}`, &resp)
	if code != 200 || resp.Contained || resp.Verdict != "not_contained" {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
}

// wideUnions are two 16–23 KB expressions with dense follow relations:
// (a|…|a)* with 8,000 alternatives has 64M follow pairs, and
// (x0|…|x3999)* 16M over 4,000 labels. member is a word of each.
var wideUnions = []struct {
	name, expr string
	member     []string
}{
	{"a8000", "(" + strings.Repeat("a|", 7999) + "a)*", []string{"a", "a", "a"}},
	{"x4000", "(" + strings.Join(wideLabels(4000), "|") + ")*", []string{"x0", "x3999", "x17"}},
}

func wideLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "x" + strconv.Itoa(i)
	}
	return out
}

// TestContainmentWideUnionAnswers sends each wide union to every decide
// endpoint — as a membership expression, as a DTD content model and as
// a containment right side — and expects an answer, not a 504, within
// the default deadline.
func TestContainmentWideUnionAnswers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, u := range wideUnions {
		for _, c := range []struct {
			path string
			body map[string]any
			want string
		}{
			{"/v1/membership", map[string]any{"expr": u.expr, "word": u.member}, `"member":true`},
			{"/v1/validate", map[string]any{
				"kind": "dtd", "schema": "<!ELEMENT r " + u.expr + ">",
				"docs": []string{"r(" + strings.Join(u.member, ", ") + ")"},
			}, `"valid":true`},
			{"/v1/containment", map[string]any{
				"engine": "regex", "left": strings.Join(u.member, " "), "right": u.expr,
			}, `"contained":true`},
		} {
			t.Run(u.name+c.path, func(t *testing.T) {
				body, _ := json.Marshal(c.body)
				var resp json.RawMessage
				if code := post(t, ts.URL, c.path, string(body), &resp); code != 200 || !strings.Contains(string(resp), c.want) {
					t.Fatalf("code=%d resp=%s", code, resp)
				}
			})
		}
	}
}

// TestLongWordDeadline sends a word the 8 KB (a|…|a)* cannot finish
// within its deadline: every symbol steps all 8,000 positions. The
// matcher checks the request context inside the word, so the request
// answers 504 and its engine gives its admission slot back soon after.
// Under the race detector the word has 100k symbols: decoding a body of
// 1M takes about 1 s there, and the decode, which checks no context,
// delays the 504.
func TestLongWordDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	expr := wideUnions[0].expr
	word := make([]string, 1_000_000)
	if raceEnabled {
		word = word[:100_000]
	}
	for i := range word {
		word[i] = "a"
	}
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/membership", map[string]any{"expr": expr, "word": word, "deadline_ms": 100}},
		{"/v1/validate", map[string]any{
			"kind": "dtd", "schema": "<!ELEMENT r " + expr + ">",
			"docs": []string{"r(" + strings.Join(word[:20_000], ", ") + ")"}, "deadline_ms": 100,
		}},
	} {
		t.Run(c.path, func(t *testing.T) {
			body, _ := json.Marshal(c.body)
			if code := post(t, ts.URL, c.path, string(body), nil); code != http.StatusGatewayTimeout {
				t.Fatalf("code=%d, want 504", code)
			}
			for stop := time.Now().Add(200 * time.Millisecond); len(s.sem) != 0 || s.detached.Load() != 0; {
				if time.Now().After(stop) {
					t.Fatalf("inflight %d, detached engines %d: not drained 200ms after the 504", len(s.sem), s.detached.Load())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestEDTDValidateDeadline sends an EDTD document of 250k children
// (25k under the race detector) whose label has 64 types, about 3 s of
// validation. EDTD validation checks the request context between
// children, so the request answers 504 and its engine gives its
// admission slot back soon after. The document is not larger because
// parsing it does not check the context: 1M children take ~0.2 s.
func TestEDTDValidateDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	n := 250_000
	if raceEnabled {
		n = 25_000
	}
	types := []map[string]string{{"name": "r", "label": "r", "content": "(" + strings.Join(wideLabels(64), "|") + ")*"}}
	for _, x := range wideLabels(64) {
		types = append(types, map[string]string{"name": x, "label": "a", "content": ""})
	}
	body, _ := json.Marshal(map[string]any{
		"kind": "edtd", "types": types, "start": []string{"r"},
		"docs":        []string{"r(" + strings.Repeat("a, ", n-1) + "a)"},
		"deadline_ms": 50,
	})
	if code := post(t, ts.URL, "/v1/validate", string(body), nil); code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d, want 504", code)
	}
	for stop := time.Now().Add(200 * time.Millisecond); len(s.sem) != 0 || s.detached.Load() != 0; {
		if time.Now().After(stop) {
			t.Fatalf("inflight %d, detached engines %d: not drained 200ms after the 504", len(s.sem), s.detached.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestContainmentKore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp containmentResponse
	code := post(t, ts.URL, "/v1/containment",
		`{"engine":"kore","left":"a a","right":"a* a*"}`, &resp)
	if code != 200 || !resp.Contained {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
}

func TestContainmentDTD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	left := `<!ELEMENT r (a)> <!ELEMENT a EMPTY>`
	right := `<!ELEMENT r (a|b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>`
	body, _ := json.Marshal(map[string]string{"engine": "dtd", "left": left, "right": right})
	var resp containmentResponse
	code := post(t, ts.URL, "/v1/containment", string(body), &resp)
	if code != 200 || !resp.Contained {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
	// and the converse fails
	body, _ = json.Marshal(map[string]string{"engine": "dtd", "left": right, "right": left})
	code = post(t, ts.URL, "/v1/containment", string(body), &resp)
	if code != 200 || resp.Contained {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
}

func TestContainmentJSONSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	left := `{"type":"integer","minimum":5}`
	right := `{"type":"integer"}`
	body, _ := json.Marshal(map[string]string{"engine": "jsonschema", "left": left, "right": right})
	var resp containmentResponse
	code := post(t, ts.URL, "/v1/containment", string(body), &resp)
	if code != 200 {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
	if resp.Verdict == "not_contained" {
		t.Fatalf("integer/minimum:5 ⊆ integer must not be refuted: %+v", resp)
	}
}

func TestContainmentBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var e map[string]string
	if code := post(t, ts.URL, "/v1/containment", `{"engine":"nope","left":"a","right":"a"}`, &e); code != 400 {
		t.Fatalf("unknown engine: code=%d", code)
	}
	if code := post(t, ts.URL, "/v1/containment", `{"engine":"regex","left":"((","right":"a"}`, &e); code != 400 {
		t.Fatalf("parse error: code=%d", code)
	}
	if code := post(t, ts.URL, "/v1/containment", `not json`, &e); code != 400 {
		t.Fatalf("invalid JSON: code=%d", code)
	}
}

// TestContainmentCacheRawKey checks that verdicts are keyed on the raw
// request text: a spelling variant with the same parse is a miss with
// the same verdict, and only a verbatim repeat hits.
func TestContainmentCacheRawKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodies := []string{
		`{"engine":"regex","left":"a|b","right":"(a|b)*"}`,
		`{"engine":"regex","left":"( a | b )","right":"( ( a | b ) )*"}`, // same parse
		`{"engine":"regex","left":"( a | b )","right":"( ( a | b ) )*"}`,
	}
	for i, b := range bodies {
		var resp containmentResponse
		if code := post(t, ts.URL, "/v1/containment", b, &resp); code != 200 || !resp.Contained || resp.Cached != (i == 2) {
			t.Fatalf("request %d: code=%d resp=%+v", i, code, resp)
		}
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 2 || st.Len != 2 {
		t.Fatalf("verdict cache %+v, want 1 hit, 2 misses, 2 entries", st)
	}
}

func TestMembership(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp membershipResponse
	code := post(t, ts.URL, "/v1/membership",
		`{"expr":"b* a (b* a)*","word":["b","a","b","a"]}`, &resp)
	if code != 200 || !resp.Member || !resp.Deterministic {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
	code = post(t, ts.URL, "/v1/membership", `{"expr":"a b","word":["b"]}`, &resp)
	if code != 200 || resp.Member {
		t.Fatalf("code=%d resp=%+v", code, resp)
	}
}

func TestValidateDTD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"kind":   "dtd",
		"schema": `<!ELEMENT r (a, b*)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>`,
		"docs":   []string{"r(a, b, b)", "r(b)", "x(a)"},
	})
	var resp validateResponse
	if code := post(t, ts.URL, "/v1/validate", string(body), &resp); code != 200 {
		t.Fatalf("code=%d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if !resp.Results[0].Valid || resp.Results[1].Valid || resp.Results[2].Valid {
		t.Fatalf("validity = %+v", resp.Results)
	}
	if resp.Results[2].Error == "" {
		t.Fatal("invalid doc must carry an error message")
	}
}

func TestValidateEDTDAndSingleType(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// two types for label a distinguished by context: classic EDTD
	types := []map[string]string{
		{"name": "r", "label": "r", "content": "t1 t2"},
		{"name": "t1", "label": "a", "content": "b"},
		{"name": "t2", "label": "a", "content": ""},
		{"name": "b", "label": "b", "content": ""},
	}
	body, _ := json.Marshal(map[string]any{
		"kind": "edtd", "types": types, "start": []string{"r"},
		"docs": []string{"r(a(b), a)", "r(a, a(b))"},
	})
	var resp validateResponse
	if code := post(t, ts.URL, "/v1/validate", string(body), &resp); code != 200 {
		t.Fatalf("code=%d", code)
	}
	if !resp.Results[0].Valid || resp.Results[1].Valid {
		t.Fatalf("results = %+v", resp.Results)
	}
	// the same EDTD is not single-type (t1, t2 share label a in one rule)
	body, _ = json.Marshal(map[string]any{
		"kind": "single-type", "types": types, "start": []string{"r"},
		"docs": []string{"r(a(b), a)"},
	})
	var e map[string]string
	if code := post(t, ts.URL, "/v1/validate", string(body), &e); code != 400 {
		t.Fatalf("non-single-type EDTD must be rejected, code=%d", code)
	}
	if !strings.Contains(e["error"], "single-type") {
		t.Fatalf("error = %q", e["error"])
	}
}

func TestInfer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, alg := range []string{"sore", "chare", "kore", "best-kore"} {
		body, _ := json.Marshal(map[string]any{
			"algorithm": alg,
			"words":     [][]string{{"a", "b"}, {"a", "b", "b"}, {"a"}},
		})
		var resp inferResponse
		if code := post(t, ts.URL, "/v1/infer", string(body), &resp); code != 200 {
			t.Fatalf("%s: code=%d", alg, code)
		}
		if resp.Expr == "" {
			t.Fatalf("%s: empty expression", alg)
		}
		// learning from positive data: the sample must be in the language
		var member membershipResponse
		mb, _ := json.Marshal(map[string]any{"expr": resp.Expr, "word": []string{"a", "b"}})
		post(t, ts.URL, "/v1/membership", string(mb), &member)
		if !member.Member {
			t.Fatalf("%s: inferred %q rejects sample word a b", alg, resp.Expr)
		}
	}
	var e map[string]string
	if code := post(t, ts.URL, "/v1/infer", `{"algorithm":"magic","words":[["a"]]}`, &e); code != 400 {
		t.Fatalf("unknown algorithm: code=%d", code)
	}
	// An empty symbol used to panic the engine goroutine, killing the
	// whole server (found by FuzzDecide).
	if code := post(t, ts.URL, "/v1/infer", `{"algorithm":"sore","words":[["","b"],["a"]]}`, &e); code != 400 {
		t.Fatalf("empty symbol: code=%d", code)
	}
}

func TestAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"name": "test",
		"queries": []string{
			"SELECT ?x WHERE { ?x ?p ?y }",
			"SELECT ?x WHERE { ?x ?p ?y }",
			"ASK { ?a ?b ?c . ?c ?d ?e }",
			"this is not sparql",
		},
	})
	var resp analyzeResponse
	if code := post(t, ts.URL, "/v1/analyze", string(body), &resp); code != 200 {
		t.Fatalf("code=%d", code)
	}
	if resp.Report == nil || resp.Report.Total != 4 {
		t.Fatalf("report = %+v", resp.Report)
	}
	if resp.Report.Valid != 3 || resp.Report.Unique != 2 {
		t.Fatalf("valid/unique = %d/%d, want 3/2", resp.Report.Valid, resp.Report.Unique)
	}
}

func TestDeadlineReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	var e map[string]string
	code := post(t, ts.URL, "/v1/containment", adversarialContainment(100), &e)
	elapsed := time.Since(start)
	if code != 504 {
		t.Fatalf("code=%d, want 504 (%v)", code, e)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("took %v, want < 500ms for a 100ms deadline", elapsed)
	}
}

func TestDeadlineClampedToMax(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDeadline: 100 * time.Millisecond})
	start := time.Now()
	var e map[string]string
	// request asks for 60s but the server clamps to 100ms
	code := post(t, ts.URL, "/v1/containment", adversarialContainment(60000), &e)
	if code != 504 {
		t.Fatalf("code=%d, want 504", code)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("clamp did not apply, took %v", time.Since(start))
	}
}

func TestAdmissionControl429(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	slow := make(chan int, 1)
	go func() {
		slow <- post(t, ts.URL, "/v1/containment", adversarialContainment(2000), nil)
	}()
	// wait until the slow request holds the only slot
	time.Sleep(100 * time.Millisecond)
	var e map[string]string
	code := post(t, ts.URL, "/v1/membership", `{"expr":"a","word":["a"]}`, &e)
	if code != 429 {
		t.Fatalf("code=%d, want 429", code)
	}
	// healthz and metrics bypass admission control
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz during overload: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if got := <-slow; got != 504 {
		t.Fatalf("slow request code=%d, want 504", got)
	}
}

func TestBodyCap413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := `{"engine":"regex","left":"` + strings.Repeat("a ", 2000) + `","right":"a*"}`
	var e map[string]string
	if code := post(t, ts.URL, "/v1/containment", big, &e); code != 413 {
		t.Fatalf("code=%d, want 413", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/containment")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: code=%d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !bytes.Contains(raw, []byte(`"ok"`)) {
		t.Fatalf("code=%d body=%s", resp.StatusCode, raw)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, "/v1/membership", `{"expr":"a","word":["a"]}`, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		`rwd_op_duration_seconds_count{op="membership",status="200"} 1`,
		"# TYPE rwd_op_duration_seconds histogram",
		"rwdserve_inflight",
		"rwdserve_cache_entries",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsTotalsAreCounters checks that every family named *_total
// declares TYPE counter: scrapers apply rate() and reset detection only
// to counters.
func TestMetricsTotalsAreCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, "/v1/membership", `{"expr":"a","word":["a"]}`, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	totals := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasSuffix(f[2], "_total") {
			totals++
			if f[3] != "counter" {
				t.Errorf("# TYPE %s %s, want counter", f[2], f[3])
			}
		}
	}
	if totals < 10 {
		t.Fatalf("found %d *_total families, want at least 10:\n%s", totals, raw)
	}
}

// TestDecideContainmentColdAllocs pins the allocations and bytes of
// one decide-cold containment request in the decide layer: a fresh
// regex pair per run, shaped like rwdperf's decide-cold mix, so every
// run parses both sides, misses the verdict cache and runs the engine.
// The engine's tables and both parse trees live in pooled scratch; what
// remains is the JSON decode, the cache key and entry, and the closure
// of the op's run. That is 16 allocations and about 2.9 KB per call,
// against 20 allocations and about 17 KB when each parse allocated its
// slabs, and 69 allocations when the engine allocated its tables. Each
// bound leaves room for growth of the cache's tables, and the byte
// bound for a pooled scratch that a garbage collection dropped. Bytes
// are counted process-wide, where an engine that an earlier test
// detached may still be allocating, so the bound applies to the
// quietest of three windows of runs calls.
func TestDecideContainmentColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, windows = 200, 3
	const maxAllocs, maxBytes = 20, 6000
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	bodies := decideColdBodies("regex", (1+windows)*runs+1)
	ctx := context.Background()
	i := 0
	decide := func() {
		if _, aerr := decideSync(s, ctx, "containment", bodies[i]); aerr != nil {
			t.Fatal(aerr)
		}
		i++
	}
	allocs := testing.AllocsPerRun(runs, decide)
	bytes := math.Inf(1)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decide()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("decide on a fresh pair: %v allocations, %.0f bytes", allocs, bytes)
	if allocs > maxAllocs {
		t.Fatalf("decide on a fresh pair: %v allocations, want ≤ %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Fatalf("decide on a fresh pair: %.0f bytes, want ≤ %d", bytes, maxBytes)
	}
}

// decideColdBodies returns n containment bodies for engine, each a
// fresh pair shaped like rwdperf's decide-cold mix: DefaultGen over a–d
// at MaxDepth 6, every other right side a union with its left side.
func decideColdBodies(engine string, n int) [][]byte {
	r := rand.New(rand.NewSource(1))
	g := regex.DefaultGen([]string{"a", "b", "c", "d"})
	g.MaxDepth = 6
	bodies := make([][]byte, n)
	for i := range bodies {
		e1, e2 := g.Random(r), g.Random(r)
		if i%2 == 0 {
			e2 = regex.NewUnion(e1, e2)
		}
		bodies[i], _ = json.Marshal(map[string]string{"engine": engine, "left": e1.String(), "right": e2.String()})
	}
	return bodies
}

// TestServeCacheHitAllocs pins the allocations of warm cache hits
// served through Server.Handler(), httptest request and recorder
// included. A containment and an infer repeat are verdict-cache hits,
// answered on the request goroutine with no engine goroutine, channel
// or deadline timer: 61 and 71 allocations. A membership and a DTD
// validate repeat are compile-cache hits whose run still matches the
// word or the documents under runEngine and its deadline: 72 and 96
// allocations. Each body is read into one buffer and decoded once.
func TestServeCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	verdicts := (*Server).CacheStats
	compiles := (*Server).CompileCacheStats
	for _, c := range []struct {
		path, body string
		stats      func(*Server) cache.Stats
		max        float64
	}{
		{"/v1/containment", `{"engine":"regex","left":"(a|b)* x","right":"(a|b)* (a|b) x"}`, verdicts, 61},
		{"/v1/infer", `{"algorithm":"sore","words":[["a","b","c"],["a","c"],["b","b","c"]]}`, verdicts, 71},
		{"/v1/membership", `{"expr":"(a|b)* a (a|b)","word":["b","a","b"]}`, compiles, 72},
		{"/v1/validate", `{"kind":"dtd","schema":"<!ELEMENT r ((a|b)*, a)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>","docs":["r(b, a)","r(a, b)"]}`, compiles, 96},
	} {
		s := New(Config{Logger: discardLogger()})
		serve := func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: code=%d %s", c.path, rec.Code, rec.Body)
			}
		}
		// The first request fills the cache; the rest let the trace ring
		// and the workload profile reach their steady state.
		for i := 0; i < 200; i++ {
			serve()
		}
		hits := c.stats(s).Hits
		allocs := testing.AllocsPerRun(200, serve)
		if got := c.stats(s).Hits - hits; got != 201 {
			t.Fatalf("%s: %d cache hits in 201 requests", c.path, got)
		}
		t.Logf("%s: %v allocations per hit", c.path, allocs)
		if allocs > c.max {
			t.Errorf("%s: %v allocations per hit, want ≤ %v", c.path, allocs, c.max)
		}
	}
}

// TestDeepNestingIsRefused sends regex and DTD inputs nested a million
// levels deep — under the body cap, and each a tree the parsers and the
// engines would recurse through once per level — to every decide
// endpoint that parses them and to /v1/batch. Each must be refused with
// a 400, without running an engine, within a second (outside -race).
func TestDeepNestingIsRefused(t *testing.T) {
	const n = 1_000_000
	h := New(Config{Logger: discardLogger()}).Handler()
	parens := strings.Repeat("(", n) + "a" + strings.Repeat(")", n)
	stars := "a" + strings.Repeat("*", n)
	dtdOf := func(model string) string { return "<!ELEMENT r " + model + "> <!ELEMENT a EMPTY>" }
	body := func(fields map[string]any) string {
		raw, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	requests := []struct{ path, body string }{
		{"/v1/containment", body(map[string]any{"engine": "regex", "left": parens, "right": "a"})},
		{"/v1/containment", body(map[string]any{"engine": "kore", "left": "a", "right": stars})},
		{"/v1/containment", body(map[string]any{"engine": "dtd", "left": dtdOf(parens), "right": dtdOf("(a)")})},
		{"/v1/membership", body(map[string]any{"expr": stars, "word": []string{"a"}})},
		{"/v1/membership", body(map[string]any{"expr": parens, "word": []string{"a"}})},
		{"/v1/validate", body(map[string]any{"kind": "dtd", "schema": dtdOf(parens), "docs": []string{"r(a)"}})},
	}
	for _, r := range requests {
		start := time.Now()
		code, raw := serve(h, r.path, r.body)
		elapsed := time.Since(start)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), "nesting deeper than 1000 levels") {
			t.Errorf("POST %s (%d bytes) = %d: %.200s", r.path, len(r.body), code, raw)
		}
		if !raceEnabled && elapsed > time.Second {
			t.Errorf("POST %s took %v", r.path, elapsed)
		}
	}
	// one request per endpoint, together under the body cap
	var items []map[string]any
	for _, i := range []int{0, 3, 5} {
		r := requests[i]
		items = append(items, map[string]any{"op": strings.TrimPrefix(r.path, "/v1/"), "request": json.RawMessage(r.body)})
	}
	code, raw := serve(h, "/v1/batch", body(map[string]any{"items": items}))
	var resp rawBatchResponse
	if err := json.Unmarshal(raw, &resp); code != http.StatusOK || err != nil || len(resp.Items) != len(items) {
		t.Fatalf("POST /v1/batch = %d (%v): %.200s", code, err, raw)
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusBadRequest {
			t.Errorf("batch item %d (%s): status %d: %.200s", i, item.Op, item.Status, item.Error)
		}
	}
}
