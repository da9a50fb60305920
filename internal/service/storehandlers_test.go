package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

func newStoreServer(t *testing.T) (*Server, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{})
	s.AttachStore(st)
	return s, ts.URL
}

func TestCorpusEndpointsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/v1/corpora", ""},
		{"POST", "/v1/corpora", `{"name":"x","queries":["q"]}`},
		{"POST", "/v1/analyze", `{"corpus":"x"}`},
	} {
		var code int
		if c.method == "GET" {
			resp, err := http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			code = resp.StatusCode
		} else {
			code = post(t, ts.URL, c.path, c.body, nil)
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s without a store: code %d, want 503", c.method, c.path, code)
		}
	}
}

func TestCorpusIngestListAnalyze(t *testing.T) {
	_, base := newStoreServer(t)

	// Ingest a log corpus.
	queries := []string{
		"SELECT ?x WHERE { ?x a ?y }",
		"not a query at all ((",
		"SELECT ?x WHERE { ?x a ?y }",
	}
	body, _ := json.Marshal(map[string]any{"name": "logs", "queries": queries})
	var ing corpusIngestResponse
	if code := post(t, base, "/v1/corpora", string(body), &ing); code != 200 {
		t.Fatalf("ingest log: code %d", code)
	}
	if ing.Added != len(queries) || ing.Kind != "log" {
		t.Fatalf("ingest log: %+v", ing)
	}

	// Ingest a triples corpus, twice — the second call must dedup.
	triples := [][3]string{
		{"s1", "knows", "s2"},
		{"s2", "knows", "s3"},
		{"s1", "knows", "s2"},
	}
	body, _ = json.Marshal(map[string]any{"name": "graph", "triples": triples})
	if code := post(t, base, "/v1/corpora", string(body), &ing); code != 200 {
		t.Fatalf("ingest triples: code %d", code)
	}
	if ing.Added != 2 || ing.Skipped != 1 || ing.Kind != "triples" {
		t.Fatalf("ingest triples: %+v", ing)
	}
	if code := post(t, base, "/v1/corpora", string(body), &ing); code != 200 || ing.Added != 0 || ing.Skipped != 3 {
		t.Fatalf("re-ingest triples: code %d resp %+v", code, ing)
	}

	// List.
	resp, err := http.Get(base + "/v1/corpora")
	if err != nil {
		t.Fatal(err)
	}
	var list corporaResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Corpora) != 2 || list.Corpora[0].Name != "graph" || list.Corpora[0].Entries != 2 ||
		list.Corpora[1].Name != "logs" || list.Corpora[1].Entries != 3 {
		t.Fatalf("corpora list: %+v", list.Corpora)
	}

	// Store-backed log analysis must match the inline path byte for byte.
	inline, _ := json.Marshal(map[string]any{"name": "logs", "queries": queries})
	var inMem, stored analyzeResponse
	if code := post(t, base, "/v1/analyze", string(inline), &inMem); code != 200 {
		t.Fatalf("inline analyze: code %d", code)
	}
	if code := post(t, base, "/v1/analyze", `{"name":"logs","corpus":"logs"}`, &stored); code != 200 {
		t.Fatalf("store-backed analyze: code %d", code)
	}
	a, _ := json.Marshal(inMem.Report)
	b, _ := json.Marshal(stored.Report)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports diverge:\ninline: %s\nstored: %s", a, b)
	}
	if stored.Queries != len(queries) || stored.Corpus != "logs" {
		t.Fatalf("store-backed analyze: %+v", stored)
	}

	// Store-backed RDF analysis.
	var rdfResp analyzeResponse
	if code := post(t, base, "/v1/analyze", `{"corpus":"graph"}`, &rdfResp); code != 200 {
		t.Fatalf("rdf analyze: code %d", code)
	}
	if rdfResp.RDFStats == nil || rdfResp.RDFStats.Triples != 2 || rdfResp.Report != nil {
		t.Fatalf("rdf analyze: %+v", rdfResp)
	}

	// Unknown corpus is 404, not 500.
	if code := post(t, base, "/v1/analyze", `{"corpus":"absent"}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown corpus: code %d, want 404", code)
	}
	// corpus+queries is the client's mistake.
	if code := post(t, base, "/v1/analyze", `{"corpus":"logs","queries":["q"]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("corpus+queries: code %d, want 400", code)
	}
}

func TestCorpusIngestValidation(t *testing.T) {
	_, base := newStoreServer(t)
	cases := []string{
		`{"queries":["q"]}`, // no name
		`{"name":"x"}`,      // no kind, no data
		`{"name":"x","kind":"nope","queries":["q"]}`,             // bad kind
		`{"name":"x","triples":[["s","p","o"]],"queries":["q"]}`, // both
		`{"name":"x","kind":"log","triples":[["s","p","o"]]}`,    // kind mismatch
		`{"name":"x","kind":"triples","queries":["q"]}`,          // kind mismatch
	}
	for i, c := range cases {
		if code := post(t, base, "/v1/corpora", c, nil); code != http.StatusBadRequest {
			t.Fatalf("case %d (%s): code %d, want 400", i, c, code)
		}
	}
}

// TestCorpusNameBound: a corpus name over store.MaxCorpusName bytes is
// refused with a 400 that names the limit, and no corpus is created.
func TestCorpusNameBound(t *testing.T) {
	_, base := newStoreServer(t)
	body, _ := json.Marshal(map[string]any{"name": strings.Repeat("n", 1<<20), "queries": []string{"q"}})
	var resp map[string]any
	if code := post(t, base, "/v1/corpora", string(body), &resp); code != http.StatusBadRequest {
		t.Fatalf("1 MiB name: code %d, want 400", code)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "at most 256 bytes") {
		t.Fatalf("1 MiB name: error %q does not name the limit", msg)
	}
	get, err := http.Get(base + "/v1/corpora")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var list corporaResponse
	if err := json.NewDecoder(get.Body).Decode(&list); err != nil || len(list.Corpora) != 0 {
		t.Fatalf("corpora after a refused create: %+v, %v", list.Corpora, err)
	}
}

// TestCorpusWrongKindIsConflict: data of the other kind POSTed to an
// existing corpus is the client's mistake, 409, in both directions.
func TestCorpusWrongKindIsConflict(t *testing.T) {
	_, base := newStoreServer(t)
	for _, c := range []string{
		`{"name":"logs","queries":["SELECT ?x WHERE { ?x a ?y }"]}`,
		`{"name":"graph","triples":[["s","p","o"]]}`,
	} {
		if code := post(t, base, "/v1/corpora", c, nil); code != 200 {
			t.Fatalf("ingest %s: code %d", c, code)
		}
	}
	for _, c := range []string{
		`{"name":"logs","triples":[["s","p","o"]]}`,
		`{"name":"graph","queries":["SELECT ?x WHERE { ?x a ?y }"]}`,
	} {
		if code := post(t, base, "/v1/corpora", c, nil); code != http.StatusConflict {
			t.Fatalf("%s: code %d, want 409", c, code)
		}
	}
}

// TestCorruptCorpusAnalyzeIs500: an SPO key holding an undecodable term
// (here a bad kind byte, behind valid segment CRCs) makes store-backed
// analysis answer 500, not rdf_stats computed without the bad triple.
func TestCorruptCorpusAnalyzeIs500(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := st.IngestTriples(ctx, "graph", []rdf.Triple{{S: "s1", P: "knows", O: "s2"}, {S: "s2", P: "knows", O: "s3"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The inline encoding of "s1" — kind 0x01, the term zero-padded to 8
	// bytes, its length — appears once in the segment, as the subject of
	// its triple's SPO key; give it an unknown kind.
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(paths) != 1 {
		t.Fatalf("want one segment, found %d", len(paths))
	}
	seg, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	enc := []byte{0x01, 's', '1', 0, 0, 0, 0, 0, 0, 2}
	at := bytes.Index(seg, enc)
	if at < 0 {
		t.Fatal("encoded term not found in the segment")
	}
	seg[at] = 0x07
	// Reseal: the data CRC at bytes 24–28, then the header CRC at 28–32.
	binary.BigEndian.PutUint32(seg[24:28], crc32.ChecksumIEEE(seg[32:]))
	binary.BigEndian.PutUint32(seg[28:32], crc32.ChecksumIEEE(seg[:28]))
	if err := os.WriteFile(paths[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}

	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{})
	s.AttachStore(st)
	var resp map[string]any
	if code := post(t, ts.URL, "/v1/analyze", `{"corpus":"graph"}`, &resp); code != http.StatusInternalServerError {
		t.Fatalf("analyze of a corrupt corpus: code %d (body %v), want 500", code, resp)
	}
	if _, ok := resp["rdf_stats"]; ok {
		t.Fatalf("analyze of a corrupt corpus returned rdf_stats: %v", resp)
	}
}

func TestStoreMetricsExported(t *testing.T) {
	_, base := newStoreServer(t)
	body, _ := json.Marshal(map[string]any{"name": "g", "triples": [][3]string{{"s", "p", "o"}}})
	if code := post(t, base, "/v1/corpora", string(body), nil); code != 200 {
		t.Fatal("ingest failed")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"rwd_store_corpora 1",
		"rwd_store_triples 1",
		"rwd_store_segments 1",
		// flush latency is the store.flush span's row, not a family of its own
		`rwd_span_seconds_count{span="store.flush"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestAnalyzeStatsMemo: the second of two stats requests with no
// commit between them is a memo hit, the first one after a commit is a
// miss again, the counters reach /metrics, and every answer is
// byte-identical to a cold server's up to elapsed_ms and the trace.
func TestAnalyzeStatsMemo(t *testing.T) {
	_, base := newStoreServer(t)
	commits := [][][3]string{
		{{"s1", "knows", "s2"}, {"s2", "knows", "s3"}, {"s1", "name", "x"}},
		{{"s3", "knows", "s1"}, {"s4", "name", "y"}},
	}
	var committed [][3]string
	commit := func(base string, triples [][3]string) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"name": "g", "triples": triples})
		if code := post(t, base, "/v1/corpora", string(body), nil); code != 200 {
			t.Fatalf("commit: code %d", code)
		}
	}
	// stats returns the response without elapsed_ms and trace, and the
	// store.stats span's memo counters.
	stats := func(base string) (body string, hits, misses int64) {
		t.Helper()
		var resp map[string]json.RawMessage
		if code := post(t, base, "/v1/analyze", `{"corpus":"g","explain":true}`, &resp); code != 200 {
			t.Fatalf("stats: code %d", code)
		}
		var root obs.Node
		if err := json.Unmarshal(resp["trace"], &root); err != nil {
			t.Fatalf("explain trace: %v", err)
		}
		root.Walk(func(n *obs.Node) {
			if n.Name == "store.stats" {
				hits += n.Counters["memo_hits"]
				misses += n.Counters["memo_misses"]
			}
		})
		delete(resp, "elapsed_ms")
		delete(resp, "trace")
		b, _ := json.Marshal(resp)
		return string(b), hits, misses
	}
	cold := func() string {
		t.Helper()
		_, fresh := newStoreServer(t)
		commit(fresh, committed)
		body, _, misses := stats(fresh)
		if misses != 1 {
			t.Fatalf("cold server: memo_misses %d, want 1", misses)
		}
		return body
	}
	for i, triples := range commits {
		commit(base, triples)
		committed = append(committed, triples...)
		want := cold()
		for j, wantHit := range []bool{false, true} {
			body, hits, misses := stats(base)
			if (hits == 1) != wantHit || hits+misses != 1 {
				t.Fatalf("commit %d, request %d: memo_hits %d, memo_misses %d, want hit=%v", i, j, hits, misses, wantHit)
			}
			if body != want {
				t.Fatalf("commit %d, request %d: answer differs from a cold server's:\n  got:  %s\n  cold: %s", i, j, body, want)
			}
		}
	}
	m := scrapeMetrics(t, base)
	for _, series := range []string{
		`rwd_span_cost_total{span="store.stats",counter="memo_hits"}`,
		`rwd_span_cost_total{span="store.stats",counter="memo_misses"}`,
	} {
		if m[series] != 2 {
			t.Errorf("%s = %v, want 2", series, m[series])
		}
	}
}
