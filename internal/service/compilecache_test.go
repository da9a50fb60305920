package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestCompileCacheMembershipAndValidate checks that an exact repeat of a
// membership or validate request is answered from the compile cache
// with the same response, and that /metrics shows the hits.
func TestCompileCacheMembershipAndValidate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodies := []struct{ path, body string }{
		{"/v1/membership", `{"expr":"(a|b)* a","word":["b","a"]}`},
		{"/v1/validate", `{"kind":"dtd","schema":"<!ELEMENT r ((a|b)*, a, (a|b))> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>","docs":["r(a, b)","r(b, a)","x"]}`},
	}
	for _, b := range bodies {
		_, first := postRaw(t, ts.URL, b.path, "application/json", b.body)
		_, second := postRaw(t, ts.URL, b.path, "application/json", b.body)
		if string(first) != string(second) {
			t.Fatalf("%s: repeat answered %s, first answer %s", b.path, second, first)
		}
	}
	st := s.CompileCacheStats()
	if st.Hits != 2 || st.Misses != 2 || st.Len != 2 {
		t.Fatalf("compile cache %+v, want 2 hits, 2 misses, 2 entries", st)
	}
	m := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]float64{
		"rwdserve_compile_cache_hits_total":      2,
		"rwdserve_compile_cache_misses_total":    2,
		"rwdserve_compile_cache_evictions_total": 0,
		"rwdserve_compile_cache_entries":         2,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}

	// A parse error is answered as before and not cached.
	var e map[string]string
	if code := post(t, ts.URL, "/v1/membership", `{"expr":"((","word":[]}`, &e); code != 400 {
		t.Fatalf("bad expr: code=%d", code)
	}
	if st := s.CompileCacheStats(); st.Len != 2 {
		t.Fatalf("failed compile was cached: %+v", st)
	}
}

// TestCompileCacheSkipsLargeInputs checks that request texts over
// maxCompileKey are answered as before but leave nothing in either
// cache: no matcher, no compiled DTD, no containment verdict.
func TestCompileCacheSkipsLargeInputs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	syms := make([]string, 12000)
	for i := range syms {
		syms[i] = fmt.Sprintf("s%d", i)
	}
	expr := strings.Join(syms, " ")
	if len(expr) <= maxCompileKey {
		t.Fatalf("expression of %d bytes is not over the limit", len(expr))
	}
	word, _ := json.Marshal(syms)
	member := fmt.Sprintf(`{"expr":%q,"word":%s}`, expr, word)
	schema := fmt.Sprintf(`<!ELEMENT r (%s)> <!ELEMENT s0 EMPTY>`, strings.Join(syms, ", "))
	validate := fmt.Sprintf(`{"kind":"dtd","schema":%q,"docs":["r(s0)"]}`, schema)
	long := strings.Repeat("x", maxCompileKey) // one symbol: cheap to decide
	contain := fmt.Sprintf(`{"engine":"regex","left":%q,"right":"%s | y"}`, long, long)
	for _, b := range []struct{ path, body string }{
		{"/v1/membership", member}, {"/v1/validate", validate}, {"/v1/containment", contain},
	} {
		var first string
		for i := 0; i < 3; i++ {
			code, raw := postRaw(t, ts.URL, b.path, "application/json", b.body)
			if code != 200 {
				t.Fatalf("%s: code=%d body=%s", b.path, code, raw)
			}
			got := normalizeJSON(t, raw)
			if i == 0 {
				first = got
			} else if b.path != "/v1/containment" && got != first {
				t.Fatalf("%s: repeat answered %s, first %s", b.path, got, first)
			}
		}
	}
	if st := s.CompileCacheStats(); st.Len != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("compile cache %+v, want untouched", st)
	}
	if st := s.CacheStats(); st.Len != 0 || st.Hits != 0 {
		t.Fatalf("verdict cache %+v, want no containment verdict stored", st)
	}
}

// TestCompileCacheDisabled checks that CacheSize < 0 disables the
// compile cache too, with unchanged answers.
func TestCompileCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 2; i++ {
		var resp membershipResponse
		if code := post(t, ts.URL, "/v1/membership", `{"expr":"b* a (b* a)*","word":["b","a"]}`, &resp); code != 200 || !resp.Member || !resp.Deterministic {
			t.Fatalf("code=%d resp=%+v", code, resp)
		}
	}
	if st := s.CompileCacheStats(); st.Hits != 0 || st.Len != 0 {
		t.Fatalf("disabled compile cache %+v", st)
	}
}

// TestVerdictLookupsMatchRequests pins the accounting of the verdict
// cache: every non-explain containment request makes exactly one
// verdict-cache lookup, whether it was answered from the cache or the
// engine, and also when its verdict has been evicted. Explain requests
// make none.
func TestVerdictLookupsMatchRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})
	dtdLeft := `<!ELEMENT r (a)> <!ELEMENT a EMPTY>`
	dtdRight := `<!ELEMENT r (a|b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>`
	body := func(engine, left, right string, explain bool) string {
		b, _ := json.Marshal(map[string]any{"engine": engine, "left": left, "right": right, "explain": explain})
		return string(b)
	}
	seq := []string{
		body("regex", "a b", "a (b|c)", false),
		body("regex", "a b", "a (b|c)", false),    // hit
		body("regex", "a b", "a (b|c)", false),    // hit
		body("regex", "a  b", "(a (b|c))", false), // variant: miss
		body("regex", "a b", "a (b|c)", true),     // explain: no lookup
		body("kore", "a a", "a* a*", false),
		body("dtd", dtdLeft, dtdRight, false),
		body("jsonschema", `{"type":"integer"}`, `{"type":"integer"}`, false),
		body("regex", "a b", "a (b|c)", false), // miss: verdict evicted
		body("regex", "a b", "a (b|c)", false), // hit: verdict refilled
	}
	nonExplain := 0
	for i, b := range seq {
		var resp containmentResponse
		if code := post(t, ts.URL, "/v1/containment", b, &resp); code != 200 {
			t.Fatalf("request %d: code=%d", i, code)
		}
		if !strings.Contains(b, `"explain":true`) {
			nonExplain++
		}
		if i == 8 && resp.Cached {
			t.Fatalf("request %d: the verdict should have been evicted: %+v", i, resp)
		}
		if i == 9 && (!resp.Cached || !resp.Contained) {
			t.Fatalf("request %d: want the refilled verdict: %+v", i, resp)
		}
	}
	// The same decisions through /v1/batch count the same way. A batch
	// item's explain flag is the batch envelope's, so here every item
	// looks up its verdict.
	items := make([]string, 0, len(seq))
	for _, b := range seq {
		items = append(items, fmt.Sprintf(`{"op":"containment","request":%s}`, b))
	}
	code, raw := postRaw(t, ts.URL, "/v1/batch", "application/json", `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != 200 {
		t.Fatalf("batch code=%d body=%s", code, raw)
	}
	nonExplain += len(seq)
	if st := s.CacheStats(); st.Hits+st.Misses != uint64(nonExplain) {
		t.Fatalf("verdict cache hits %d + misses %d != %d non-explain containment requests", st.Hits, st.Misses, nonExplain)
	}
}

// TestInferMemo pins the verdict-cache entry of /v1/infer: an exact
// repeat is one hit answered with the same bytes, the same body as a
// /v1/batch item hits that entry, and a body with the words in another
// order or another k is a new key.
func TestInferMemo(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"algorithm":"best-kore","k":3,"words":[["a","b","a"],["b"],["a","a","b"]]}`
	_, first := postRaw(t, ts.URL, "/v1/infer", "application/json", body)
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != 1 || st.Len != 1 {
		t.Fatalf("after the first request: verdict cache %+v, want 1 miss and 1 entry", st)
	}
	code, second := postRaw(t, ts.URL, "/v1/infer", "application/json", body)
	if code != 200 || !bytes.Equal(first, second) {
		t.Fatalf("repeat answered %d %s, first answer %s", code, second, first)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after the repeat: verdict cache %+v, want 1 hit", st)
	}

	code, raw := postRaw(t, ts.URL, "/v1/batch", "application/json", `{"items":[{"op":"infer","request":`+body+`}]}`)
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); code != 200 || err != nil || len(br.Items) != 1 {
		t.Fatalf("batch answered %d %s (%v)", code, raw, err)
	}
	if got := br.Items[0].Response; !bytes.Equal(got, bytes.TrimSpace(first)) {
		t.Fatalf("batch item answered %s, /v1/infer %s", got, first)
	}
	if st := s.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("after the batch: verdict cache %+v, want the item to hit", st)
	}

	for _, other := range []string{
		`{"algorithm":"best-kore","k":3,"words":[["b"],["a","b","a"],["a","a","b"]]}`,
		`{"algorithm":"best-kore","k":2,"words":[["a","b","a"],["b"],["a","a","b"]]}`,
		`{"algorithm":"kore","k":3,"words":[["a","b","a"],["b"],["a","a","b"]]}`,
	} {
		before := s.CacheStats()
		postRaw(t, ts.URL, "/v1/infer", "application/json", other)
		if st := s.CacheStats(); st.Hits != before.Hits || st.Len != before.Len+1 {
			t.Fatalf("%s: verdict cache %+v -> %+v, want a new entry", other, before, st)
		}
	}
}

// TestInferMemoSkipsEndedContext checks that an inference answer
// computed after its request's context ended is returned but not
// stored, and that the same request under a live context is.
func TestInferMemoSkipsEndedContext(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	body := []byte(`{"algorithm":"sore","words":[["a","b"],["b","a"]]}`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, aerr := decideSync(s, ctx, "infer", body); aerr != nil {
		t.Fatalf("decide: %d %s", aerr.status, aerr.msg)
	}
	if st := s.CacheStats(); st.Len != 0 {
		t.Fatalf("an answer under an ended context was stored: %+v", st)
	}
	if _, aerr := decideSync(s, context.Background(), "infer", body); aerr != nil {
		t.Fatalf("decide: %d %s", aerr.status, aerr.msg)
	}
	if st := s.CacheStats(); st.Len != 1 {
		t.Fatalf("an answer under a live context was not stored: %+v", st)
	}
}

// TestCompileCacheConcurrent shares one cached Matcher, one compiled DTD,
// one containment verdict and one inference answer among concurrent
// requests; every answer must equal the first.
func TestCompileCacheConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 16})
	reqs := []struct{ path, body string }{
		{"/v1/membership", `{"expr":"(a|b)* a (a|b)","word":["b","a","b"]}`},
		{"/v1/validate", `{"kind":"dtd","schema":"<!ELEMENT r ((a|b)*, a)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>","docs":["r(b, a)","r(a, b)"]}`},
		{"/v1/containment", `{"engine":"regex","left":"a b","right":"a (b|c)"}`},
		{"/v1/infer", `{"algorithm":"chare","words":[["a","b"],["b","a","c"]]}`},
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		postRaw(t, ts.URL, r.path, "application/json", r.body) // fills the caches
		_, raw := postRaw(t, ts.URL, r.path, "application/json", r.body)
		want[i] = normalizeJSON(t, raw)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := reqs[i%len(reqs)]
				resp, err := http.Post(ts.URL+r.path, "application/json", strings.NewReader(r.body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				var m map[string]any
				if err := json.Unmarshal(raw, &m); err != nil {
					t.Errorf("decoding %q: %v", raw, err)
					return
				}
				delete(m, "elapsed_ms")
				got, _ := json.Marshal(m)
				if string(got) != want[i%len(reqs)] {
					t.Errorf("%s answered %s, want %s", r.path, got, want[i%len(reqs)])
				}
			}
		}()
	}
	wg.Wait()
}

// TestContainmentKeyLinearInBody bounds the bytes one containment
// request allocates before its engine runs, on a pair of DTDs of 2,000
// ANY declarations (38 KB each): decode, verdict key and both parses,
// run under an already-cancelled context so that the engine stops at
// its first checkpoint. The verdict key is the raw request text, so the
// bound is linear in the body; keying on DTD.String() rendered every
// ANY rule over all 2,000 names, a 59.6 MB key and 833 MB allocated.
func TestContainmentKeyLinearInBody(t *testing.T) {
	const perByte, constant = 16, 1 << 20
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "<!ELEMENT e%d ANY>\n", i)
	}
	body, _ := json.Marshal(map[string]string{"engine": "dtd", "left": b.String(), "right": b.String()})
	s := New(Config{Logger: discardLogger()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, run, aerr := s.prepareContainment(&request{}, body)
	if aerr != nil || run == nil {
		t.Fatalf("prepare: %v, run %v", aerr, run != nil)
	}
	_, aerr = run(ctx)
	runtime.ReadMemStats(&after)
	if aerr == nil || aerr.status != http.StatusRequestTimeout {
		t.Fatalf("run under a cancelled context answered %+v, want 408", aerr)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte body: %d bytes allocated (%.1f per body byte)", len(body), alloc, float64(alloc)/float64(len(body)))
	if bound := perByte*uint64(len(body)) + constant; alloc > bound {
		t.Fatalf("%d-byte body: %d bytes allocated, want ≤ %d × body + %d = %d", len(body), alloc, perByte, constant, bound)
	}
	if st := s.CacheStats(); st.Len != 0 {
		t.Fatalf("a run ended by its context stored a verdict: %+v", st)
	}
}
