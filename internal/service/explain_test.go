package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	"repro/internal/store"
)

// findSpan walks the exported tree for the first span with the given
// name, depth-first.
func findSpan(n *obs.Node, name string) *obs.Node {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

type explainedContainment struct {
	containmentResponse
	Trace *obs.Node `json:"trace"`
}

// TestContainmentExplain is the acceptance check of the explain mode:
// a containment request with "explain": true returns a nested span tree
// whose engine span reports nonzero cost counters. The instance is
// antichain-hard self-containment at small k, where all three engine
// counters (states_expanded, product_states, antichain_pruned) fire.
func TestContainmentExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hard := automata.AntichainHardExpr(8)
	body := `{"engine":"regex","left":"` + hard + `","right":"` + hard + `","explain":true}`
	var resp explainedContainment
	if code := post(t, ts.URL, "/v1/containment", body, &resp); code != 200 {
		t.Fatalf("code = %d", code)
	}
	if resp.Trace == nil {
		t.Fatal("explain=true returned no trace")
	}
	if resp.Trace.Name != "http.containment" || resp.Trace.TraceID == "" {
		t.Fatalf("root span = %q trace_id = %q", resp.Trace.Name, resp.Trace.TraceID)
	}
	contains := findSpan(resp.Trace, "automata.contains")
	if contains == nil {
		t.Fatalf("no automata.contains span in trace: %+v", resp.Trace)
	}
	if contains.Attrs["engine"] != "antichain" {
		t.Fatalf("engine attr = %q, want antichain: %+v", contains.Attrs["engine"], contains)
	}
	for _, c := range []string{"states_expanded", "product_states", "antichain_pruned"} {
		if contains.Counters[c] == 0 {
			t.Fatalf("%s = 0 in explain trace: %+v", c, contains.Counters)
		}
	}
}

// TestExplainSkipsCacheRead pins the cache/explain interaction: the
// second identical request would normally be a cache hit with no engine
// work, but with explain=true it must re-run the engine so the trace is
// populated.
func TestExplainSkipsCacheRead(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plain := `{"engine":"regex","left":"a","right":"a|b"}`
	var warm containmentResponse
	post(t, ts.URL, "/v1/containment", plain, &warm)
	if warm.Cached {
		t.Fatal("first request must be a miss")
	}
	var resp explainedContainment
	post(t, ts.URL, "/v1/containment", `{"engine":"regex","left":"a","right":"a|b","explain":true}`, &resp)
	if resp.Cached {
		t.Fatal("explain request must bypass the cache read")
	}
	if resp.Trace == nil || findSpan(resp.Trace, "automata.contains") == nil {
		t.Fatalf("explain request returned no engine spans: %+v", resp.Trace)
	}
	if !resp.Contained {
		t.Fatal("verdict changed under explain")
	}
}

// TestExplainOtherEndpoints spot-checks that infer and analyze also
// return traces with their engine spans, infer also when a plain
// request has already stored its answer in the verdict cache.
func TestExplainOtherEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, warm := range []bool{false, true} {
		if warm {
			post(t, ts.URL, "/v1/infer", `{"algorithm":"sore","words":[["a","b"],["b","a"]]}`, nil)
			if st := s.CacheStats(); st.Len != 1 {
				t.Fatalf("the plain request stored no answer: %+v", st)
			}
		}
		var infer struct {
			inferResponse
			Trace *obs.Node `json:"trace"`
		}
		before := s.CacheStats()
		post(t, ts.URL, "/v1/infer",
			`{"algorithm":"sore","words":[["a","b"],["b","a"]],"explain":true}`, &infer)
		if findSpan(infer.Trace, "inference.sore") == nil {
			t.Fatalf("warm=%v: no inference.sore span: %+v", warm, infer.Trace)
		}
		if st := s.CacheStats(); st.Hits != before.Hits || st.Misses != before.Misses {
			t.Fatalf("warm=%v: the explain request read the verdict cache: %+v -> %+v", warm, before, st)
		}
	}
	var analyze struct {
		analyzeResponse
		Trace *obs.Node `json:"trace"`
	}
	post(t, ts.URL, "/v1/analyze",
		`{"queries":["SELECT ?x WHERE { ?x <p> ?y }"],"workers":1,"explain":true}`, &analyze)
	if findSpan(analyze.Trace, "core.shard") == nil {
		t.Fatalf("no core.shard span: %+v", analyze.Trace)
	}
}

// TestWithTraceMatchesMapMerge pins the single-marshal splice of
// withTrace against the merge it replaced (marshal, unmarshal into a
// map, set "trace", marshal again) on every op's explain response:
// clients must see the same JSON value; only key order may change.
func TestWithTraceMatchesMapMerge(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(Config{Logger: discardLogger()})
	s.AttachStore(st)

	decode := func(v any) any {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var out any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%v in %s", err, raw)
		}
		return out
	}
	var tree *obs.Node
	check := func(name string, out any) {
		t.Helper()
		merged := decode(out).(map[string]any)
		merged["trace"] = tree
		if got, want := decode(withTrace(out, tree)), decode(merged); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: withTrace = %v, want %v", name, got, want)
		}
	}

	for _, c := range []struct {
		op, body, query string
		h               handlerFunc
	}{
		{"containment", `{"engine":"regex","left":"a b","right":"a (b|c)","explain":true}`, "", s.decideHandler(decideOps["containment"])},
		{"membership", `{"expr":"(a|b)* a","word":["b","a"],"explain":true}`, "", s.handleMembership},
		{"validate", `{"kind":"dtd","schema":"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>","docs":["r(a, a)","r(r)"],"explain":true}`, "", s.decideHandler(decideOps["validate"])},
		{"infer", `{"algorithm":"sore","words":[["a","b"],["b"]],"explain":true}`, "", s.decideHandler(decideOps["infer"])},
		{"analyze", `{"name":"mix","queries":["SELECT ?x WHERE { ?x ?p ?y }","ASK { ?a ?b ?c }"],"explain":true}`, "", s.handleAnalyze},
		{"analyze", "SELECT ?x WHERE { ?x ?p ?y }\nnot sparql\n", "name=log&workers=1&explain=true", s.handleAnalyze},
		{"batch", `{"explain":true,` + batchBody(t)[1:], "", s.handleBatch},
		{"corpora_ingest", `{"name":"g","triples":[["a","p","b"]],"explain":true}`, "", s.handleCorporaIngest},
		{"corpora", "", "", s.handleCorporaList},
	} {
		ctx, root := s.tracer.StartRoot(context.Background(), "http."+c.op)
		q, _ := url.ParseQuery(c.query)
		req := &request{body: []byte(c.body), ndjson: c.query != "", query: q}
		req.env = parseEnvelope(req)
		out, aerr := c.h(ctx, req)
		if aerr != nil {
			t.Fatalf("%s: %d %s", c.op, aerr.status, aerr.msg)
		}
		root.SetAttr(recorder.StatusAttr, "200")
		tree = root.Tree()
		check(c.op, out)
	}
	check("empty object", struct{}{})
}

// TestSpanMetricsExposed checks that engine spans feed the rwd_span_*
// families even without explain mode, and that the build-info and
// process self-metrics render.
func TestSpanMetricsExposed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL, "/v1/containment", `{"engine":"regex","left":"a","right":"a|b"}`, nil)
	var buf bytes.Buffer
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`rwd_span_seconds_bucket{span="automata.contains"`,
		`rwd_span_cost_total{span="automata.contains",counter="product_states"}`,
		`rwd_build_info{go_version=`,
		"go_goroutines ",
		"go_memstats_heap_alloc_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestAccessLogQuotesPathAndTrace pins the log-injection fix: the
// attacker-controlled path is %q-quoted, so a newline in the URL cannot
// forge a second log line, and the line carries the request's trace id.
// The middleware is driven directly because the router would never
// route such a path to the endpoint.
func TestAccessLogQuotesPathAndTrace(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	s := New(Config{Logger: logger})
	h := s.endpoint("containment", s.decideHandler(decideOps["containment"]))
	req := httptest.NewRequest("POST", "/v1/containment", strings.NewReader(`{}`))
	req.URL.Path = "/v1/containment\nlevel=error forged=1"
	h.ServeHTTP(httptest.NewRecorder(), req)
	out := buf.String()
	if strings.Contains(out, "\nlevel=error") {
		t.Fatalf("newline in path forged a log line:\n%s", out)
	}
	if !strings.Contains(out, `path="/v1/containment\nlevel=error forged=1"`) {
		t.Fatalf("path not quoted: %s", out)
	}
	if !strings.Contains(out, "trace=") {
		t.Fatalf("no trace id in access log: %s", out)
	}
}
