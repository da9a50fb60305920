package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/obs"
)

// rawBatchResponse mirrors batchResponse with raw per-item payloads so
// tests can byte-compare them against single-endpoint responses.
type rawBatchResponse struct {
	Count  int `json:"count"`
	Failed int `json:"failed"`
	Items  []struct {
		Op       string          `json:"op"`
		Status   int             `json:"status"`
		Response json.RawMessage `json:"response"`
		Error    string          `json:"error"`
	} `json:"items"`
}

// postRaw sends body and returns status code and raw response bytes.
func postRaw(t *testing.T, base, path, contentType, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// normalizeJSON re-renders a JSON object with sorted keys and the
// documented volatile fields (elapsed_ms: wall clock) removed, so two
// responses can be compared byte-for-byte on everything deterministic —
// including the cached flag, which must agree between a batch and the
// equivalent request sequence.
func normalizeJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("normalizing %q: %v", raw, err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// batchTestItems is a heterogeneous batch covering every op, a
// duplicate containment (a cache hit in both worlds), and a per-item
// error.
var batchTestItems = []struct{ op, body string }{
	{"containment", `{"engine":"regex","left":"a b","right":"a (b|c)"}`},
	{"membership", `{"expr":"(a|b)* a","word":["b","a"]}`},
	{"validate", `{"kind":"dtd","schema":"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>","docs":["r(a, a)","r(r)"]}`},
	{"infer", `{"algorithm":"sore","words":[["a","b"],["b"]]}`},
	{"containment", `{"engine":"regex","left":"a b","right":"a (b|c)"}`}, // duplicate: cache hit
	{"containment", `{"engine":"nope","left":"a","right":"a"}`},          // per-item 400
}

func batchBody(t testing.TB) string {
	t.Helper()
	items := make([]map[string]any, len(batchTestItems))
	for i, it := range batchTestItems {
		items[i] = map[string]any{"op": it.op, "request": json.RawMessage(it.body)}
	}
	raw, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBatchMatchesSingleRequests is the acceptance check: a batch's
// per-item responses are byte-identical (modulo the volatile elapsed_ms
// field) to the same decisions issued one-per-request against a fresh
// server — including cached flags, error messages, and statuses.
func TestBatchMatchesSingleRequests(t *testing.T) {
	// world A: one request per decision
	_, tsA := newTestServer(t, Config{})
	type single struct {
		status int
		norm   string
		errMsg string
	}
	singles := make([]single, len(batchTestItems))
	for i, it := range batchTestItems {
		code, raw := postRaw(t, tsA.URL, "/v1/"+it.op, "application/json", it.body)
		s := single{status: code}
		if code == http.StatusOK {
			s.norm = normalizeJSON(t, raw)
		} else {
			var e map[string]string
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("item %d: decoding error body %q: %v", i, raw, err)
			}
			s.errMsg = e["error"]
		}
		singles[i] = s
	}

	// world B: the same decisions as one batch against a fresh server
	_, tsB := newTestServer(t, Config{})
	code, raw := postRaw(t, tsB.URL, "/v1/batch", "application/json", batchBody(t))
	if code != http.StatusOK {
		t.Fatalf("batch code=%d body=%s", code, raw)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != len(batchTestItems) || len(br.Items) != len(batchTestItems) {
		t.Fatalf("count=%d items=%d, want %d", br.Count, len(br.Items), len(batchTestItems))
	}
	if br.Failed != 1 {
		t.Fatalf("failed=%d, want 1 (the bad-engine item)", br.Failed)
	}
	for i, item := range br.Items {
		if item.Status != singles[i].status {
			t.Errorf("item %d (%s): status %d, single request got %d",
				i, item.Op, item.Status, singles[i].status)
			continue
		}
		if item.Status != http.StatusOK {
			if item.Error != singles[i].errMsg {
				t.Errorf("item %d error %q, single request said %q", i, item.Error, singles[i].errMsg)
			}
			continue
		}
		if got := normalizeJSON(t, item.Response); got != singles[i].norm {
			t.Errorf("item %d (%s) diverges from the single request:\n batch:  %s\n single: %s",
				i, item.Op, got, singles[i].norm)
		}
	}
}

// TestBatchPerItemCache checks that batch items consult the verdict
// cache individually: a duplicated containment item inside one batch is
// a hit for the second occurrence.
func TestBatchPerItemCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, raw := postRaw(t, ts.URL, "/v1/batch", "application/json", batchBody(t))
	if code != 200 {
		t.Fatalf("code=%d", code)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	var first, dup containmentResponse
	if err := json.Unmarshal(br.Items[0].Response, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(br.Items[4].Response, &dup); err != nil {
		t.Fatal(err)
	}
	if first.Cached || !dup.Cached {
		t.Fatalf("cached flags first=%v dup=%v, want false/true", first.Cached, dup.Cached)
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}
}

// TestBatchExplainPerItemSpans checks the tracing contract: one root
// trace with a batch.item child per item, each carrying the engine spans
// of its decision.
func TestBatchExplainPerItemSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"explain":true,"items":[
		{"op":"containment","request":{"engine":"regex","left":"a","right":"a|b"}},
		{"op":"membership","request":{"expr":"a","word":["a"]}}]}`
	var resp struct {
		rawBatchResponse
		Trace *obs.Node `json:"trace"`
	}
	code, raw := postRaw(t, ts.URL, "/v1/batch", "application/json", body)
	if code != 200 {
		t.Fatalf("code=%d body=%s", code, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.Name != "http.batch" {
		t.Fatalf("root trace = %+v", resp.Trace)
	}
	var items []*obs.Node
	for _, c := range resp.Trace.Children {
		if c.Name == "batch.item" {
			items = append(items, c)
		}
	}
	if len(items) != 2 {
		t.Fatalf("batch.item spans = %d, want 2", len(items))
	}
	if items[0].Attrs["op"] != "containment" || items[0].Attrs["index"] != "0" {
		t.Fatalf("item span attrs = %+v", items[0].Attrs)
	}
	if findSpan(items[0], "automata.contains") == nil {
		t.Fatalf("no engine span under batch.item: %+v", items[0])
	}
}

// TestBatchDeadlineMarksRemainingItems: a batch whose deadline expires
// mid-run returns per-item verdicts for the items already decided and
// 504 markers for the rest, instead of losing the whole batch.
func TestBatchDeadlineMarksRemainingItems(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hard := automata.AntichainHardExpr(16)
	adversarial := `{"engine":"regex","left":"` + hard + `","right":"` + hard + `"}`
	body := `{"deadline_ms":150,"items":[
		{"op":"membership","request":{"expr":"a","word":["a"]}},
		{"op":"containment","request":` + adversarial + `},
		{"op":"membership","request":{"expr":"a","word":["a"]}}]}`
	code, raw := postRaw(t, ts.URL, "/v1/batch", "application/json", body)
	if code != 200 {
		t.Fatalf("code=%d body=%s", code, raw)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != 200 {
		t.Fatalf("item 0 status=%d, want 200 (decided before the deadline)", br.Items[0].Status)
	}
	if br.Items[1].Status != 504 || br.Items[2].Status != 504 {
		t.Fatalf("items 1,2 status=%d,%d, want 504,504", br.Items[1].Status, br.Items[2].Status)
	}
	if br.Failed != 2 {
		t.Fatalf("failed=%d, want 2", br.Failed)
	}
}

// TestBatchConcurrent drives concurrent batches under -race and checks
// per-item integrity of every response.
func TestBatchConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 32})
	body := batchBody(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			var br rawBatchResponse
			if err := json.Unmarshal(raw, &br); err != nil {
				errs <- fmt.Errorf("decoding %q: %w", raw, err)
				return
			}
			if resp.StatusCode != 200 || br.Count != len(batchTestItems) || br.Failed != 1 {
				errs <- fmt.Errorf("code=%d count=%d failed=%d", resp.StatusCode, br.Count, br.Failed)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := postRaw(t, ts.URL, "/v1/batch", "application/json", `{"items":[]}`); code != 400 {
		t.Fatalf("empty items: code=%d, want 400", code)
	}
	if code, _ := postRaw(t, ts.URL, "/v1/batch", "application/json", `not json`); code != 400 {
		t.Fatalf("invalid JSON: code=%d, want 400", code)
	}
	// unknown op fails per-item, not per-request
	code, raw := postRaw(t, ts.URL, "/v1/batch", "application/json",
		`{"items":[{"op":"magic","request":{}}]}`)
	if code != 200 {
		t.Fatalf("unknown op: code=%d, want 200 with a per-item error", code)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != 400 || !strings.Contains(br.Items[0].Error, "unknown op") {
		t.Fatalf("item = %+v", br.Items[0])
	}
}

// TestAnalyzeNDJSONStream is the streaming acceptance check: a raw
// NDJSON query log posted to /v1/analyze produces a report identical to
// the JSON-mode request carrying the same queries.
func TestAnalyzeNDJSONStream(t *testing.T) {
	_, ts := newTestServer(t, Config{AnalyzeWorkers: 4})
	queries := []string{
		"SELECT ?x WHERE { ?x ?p ?y }",
		"SELECT ?x WHERE { ?x ?p ?y }",
		"ASK { ?a ?b ?c . ?c ?d ?e }",
		"this is not sparql",
	}

	jsonBody, _ := json.Marshal(map[string]any{"name": "log", "queries": queries, "workers": 2})
	codeJSON, rawJSON := postRaw(t, ts.URL, "/v1/analyze", "application/json", string(jsonBody))
	if codeJSON != 200 {
		t.Fatalf("json mode: code=%d body=%s", codeJSON, rawJSON)
	}

	ndjson := strings.Join(queries, "\n") + "\n"
	codeND, rawND := postRaw(t, ts.URL, "/v1/analyze?name=log&workers=2",
		"application/x-ndjson", ndjson)
	if codeND != 200 {
		t.Fatalf("ndjson mode: code=%d body=%s", codeND, rawND)
	}

	if normJSON, normND := normalizeJSON(t, rawJSON), normalizeJSON(t, rawND); normJSON != normND {
		t.Fatalf("stream and JSON mode reports diverge:\n json:   %s\n ndjson: %s", normJSON, normND)
	}

	var resp analyzeResponse
	if err := json.Unmarshal(rawND, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Queries != 4 || resp.Report == nil || resp.Report.Valid != 3 || resp.Report.Unique != 2 {
		t.Fatalf("ndjson report = %+v", resp)
	}
	if resp.Workers != 2 {
		t.Fatalf("workers = %d, want 2 from the query string", resp.Workers)
	}
}

// TestAnalyzeNDJSONSkipsBlankLinesAndTrailingNewline pins textio
// semantics on the wire: blank lines don't count as queries.
func TestAnalyzeNDJSONSkipsBlankLines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := "\nASK { ?a ?b ?c }\n\n\nSELECT ?x WHERE { ?x ?p ?y }\n\n"
	code, raw := postRaw(t, ts.URL, "/v1/analyze", "text/plain", body)
	if code != 200 {
		t.Fatalf("code=%d body=%s", code, raw)
	}
	var resp analyzeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Queries != 2 || resp.Report.Total != 2 {
		t.Fatalf("queries=%d total=%d, want 2/2", resp.Queries, resp.Report.Total)
	}
}

// TestAnalyzeNDJSONEnvelopeInQuery checks the stream-mode envelope: the
// deadline moves to the query string and is honored.
func TestAnalyzeNDJSONEnvelopeInQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// a big generated corpus that cannot be analyzed in 1ms but stays
	// under the request-size cap
	var sb strings.Builder
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&sb, "SELECT ?v%d WHERE { ?v%d ?p ?o . ?o ?q ?r OPTIONAL { ?r ?s ?v%d } }\n", i, i, i)
	}
	code, raw := postRaw(t, ts.URL, "/v1/analyze?deadline_ms=1", "application/x-ndjson", sb.String())
	if code != 504 {
		t.Fatalf("code=%d body=%.120s, want 504 from the query-string deadline", code, raw)
	}
	if code, _ := postRaw(t, ts.URL, "/v1/analyze?deadline_ms=30000",
		"application/x-ndjson", "ASK { ?a ?b ?c }\n"); code != 200 {
		t.Fatalf("generous stream deadline: code=%d, want 200", code)
	}
}
