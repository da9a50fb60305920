package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// FuzzObservabilityQuery sends arbitrary raw query strings and trace
// ids to the read-only observability endpoints (/v1/traces,
// /v1/traces/{id} and /v1/stats) of a server holding a few recorded
// traces. No input may panic or answer anything but 200, 400 or 404;
// every 200 body is JSON; and no read is recorded by the flight
// recorder or folded into the profile.
func FuzzObservabilityQuery(f *testing.F) {
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	h := s.Handler()
	for _, body := range []string{
		`{"engine":"regex","left":"a b","right":"a (b|c)"}`,
		`{"engine":"regex","left":"(a|b)* a","right":"(a|b)*"}`,
		`{"engine":"nope","left":"a","right":"a"}`,
		`{not json`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/containment", strings.NewReader(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	recorded := s.flight.Snapshot()
	if len(recorded) == 0 {
		f.Fatal("no traces recorded to query")
	}
	// The empty id stands for a recorded trace's, so the seeds reach the
	// 200 path of /v1/traces/{id}.
	knownID := recorded[0].TraceID

	f.Add("", "")
	f.Add("op=containment&status=200&sort=slowest&limit=5", "no-such-trace")
	f.Add("format=perfetto&limit=-1", "")
	f.Add("min_ms=NaN&since=-1s&limit=0", "%zz")
	f.Add("sort=recent&sort=slowest", "a/b")
	f.Add("window=live&window=hourly", "..")
	f.Add("window=lifetime&op=containment&engine=-", "\x00")
	f.Add("since=9999999999h&min_ms=1e308&limit=99999999999999999999", ".")
	f.Fuzz(func(t *testing.T, rawQuery, id string) {
		observed, recordedN := s.Profile().Observed(), s.FlightStats().Recorded
		switch id {
		case "":
			id = knownID
		case ".", "..":
			// A dot segment is cleaned away by the mux (a 301 to another
			// route), so it never reaches the id handler.
			id = "x" + id
		}
		targets := []*url.URL{
			{Path: "/v1/traces", RawQuery: rawQuery},
			{Path: "/v1/traces/" + id, RawPath: "/v1/traces/" + url.PathEscape(id), RawQuery: rawQuery},
			{Path: "/v1/stats", RawQuery: rawQuery},
		}
		for _, u := range targets {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL = u
			req.RequestURI = u.RequestURI()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			switch w.Code {
			case http.StatusOK:
				if !json.Valid(w.Body.Bytes()) {
					t.Fatalf("GET %s: 200 with a body that is not JSON: %q", u.RequestURI(), w.Body.Bytes())
				}
			case http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("GET %s = %d: %s", u.RequestURI(), w.Code, w.Body.Bytes())
			}
		}
		if got := s.Profile().Observed(); got != observed {
			t.Fatalf("profile observed %d -> %d: a read was profiled", observed, got)
		}
		if got := s.FlightStats().Recorded; got != recordedN {
			t.Fatalf("recorder recorded %d -> %d: a read was recorded", recordedN, got)
		}
	})
}

// FuzzDecide sends arbitrary raw bodies to the four decision endpoints
// (/v1/containment, /v1/membership, /v1/validate and /v1/infer) of a
// server that clamps every deadline to 50 ms. No input may panic or
// answer a 5xx other than 503 or 504; every 200 body is JSON; an input
// /v1/infer answers 200 is sent again, and a 200 repeat must carry the
// same bytes (up to the trace of an explain request); and after each
// input the admission slots and detached engines — the
// rwdserve_inflight and rwdserve_detached_engines gauges — drain back
// to zero.
func FuzzDecide(f *testing.F) {
	const maxDeadline = 50 * time.Millisecond
	s := New(Config{MaxDeadline: maxDeadline, Logger: discardLogger()})
	h := s.Handler()
	for _, body := range []string{
		`{"engine":"regex","left":"a b","right":"a (b|c)"}`,
		`{"engine":"kore","left":"a a","right":"a* a*"}`,
		`{"engine":"dtd","left":"<!ELEMENT r (a)> <!ELEMENT a EMPTY>","right":"<!ELEMENT r (a|b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>"}`,
		`{"engine":"jsonschema","left":"{\"type\":\"integer\",\"minimum\":5}","right":"{\"type\":\"integer\"}"}`,
		`{"engine":"regex","left":"a","right":"a|b","explain":true}`,
		`{"expr":"b* a (b* a)*","word":["b","a","b","a"]}`,
		`{"kind":"dtd","schema":"<!ELEMENT r (a, b*)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>","docs":["r(a, b, b)","r(b)","x(a)"]}`,
		`{"kind":"edtd","types":[{"name":"r","label":"r","content":"t1 t2"},{"name":"t1","label":"a","content":"b"},{"name":"t2","label":"a","content":""},{"name":"b","label":"b","content":""}],"start":["r"],"docs":["r(a(b), a)"]}`,
		`{"algorithm":"sore","words":[["a","b"],["a","b","b"],["a"]]}`,
		`{"algorithm":"best-kore","words":[["a","b"],["b","a"]],"deadline_ms":1}`,
		`not json`,
		`{"engine":"nope","left":"a","right":"a"}`,
		`{"engine":"regex","left":"((","right":"a"}`,
		`{"algorithm":"magic","words":[["a"]]}`,
		adversarialContainment(60000),
		// one level past textio.MaxDepth
		`{"engine":"regex","left":"` + deepParens + `","right":"a"}`,
		`{"expr":"` + deepStars + `","word":["a"]}`,
		`{"kind":"dtd","schema":"<!ELEMENT r ` + deepParens + `> <!ELEMENT a EMPTY>","docs":["r(a)"]}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/containment", "/v1/membership", "/v1/validate", "/v1/infer"} {
			code, raw := serve(h, path, body)
			switch {
			case code == http.StatusOK:
				if !json.Valid(raw) {
					t.Fatalf("POST %s: 200 with a body that is not JSON: %q", path, raw)
				}
			case code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout:
				t.Fatalf("POST %s = %d: %s", path, code, raw)
			}
			if path != "/v1/infer" || code != http.StatusOK {
				continue
			}
			// The first answer filled the verdict cache, unless its
			// deadline had passed; an explain repeat runs the learner
			// again under a new trace.
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatalf("POST %s: decoding %q: %v", path, raw, err)
			}
			_, explained := fields["trace"]
			again, rawAgain := serve(h, path, body)
			switch {
			case again == http.StatusGatewayTimeout:
			case again != http.StatusOK:
				t.Fatalf("POST %s answered 200, then %d: %s", path, again, rawAgain)
			case explained:
				if got, want := decisionFields(t, rawAgain), decisionFields(t, raw); got != want {
					t.Fatalf("POST %s explain repeat answered %s, first answer %s", path, got, want)
				}
			case !bytes.Equal(rawAgain, raw):
				t.Fatalf("POST %s repeat answered %s, first answer %s", path, rawAgain, raw)
			}
		}
		// Every engine was cancelled at the deadline; the ones still
		// running must exit soon after and give their slots back.
		for stop := time.Now().Add(20 * maxDeadline); len(s.sem) != 0 || s.detached.Load() != 0; {
			if time.Now().After(stop) {
				t.Fatalf("inflight %d, detached engines %d: not drained %v after the deadline",
					len(s.sem), s.detached.Load(), 20*maxDeadline)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// FuzzBatch sends arbitrary raw bodies to /v1/batch on a server that
// clamps every deadline to 50 ms, with the invariants of FuzzDecide: no
// panic, no 5xx other than 503 or 504, every 200 body is JSON, and the
// admission slots and detached engines drain to zero within a second.
// Besides, every batch item answered 200 must equal the answer of the
// item's own endpoint to the same request body, whenever that answer is
// a 200 too — up to elapsed_ms, cached and an explain trace.
func FuzzBatch(f *testing.F) {
	const maxDeadline = 50 * time.Millisecond
	s := New(Config{MaxDeadline: maxDeadline, Logger: discardLogger()})
	h := s.Handler()
	for _, body := range []string{
		batchBody(f),
		`{"items":[]}`,
		`not json`,
		`{"items":[{"op":"magic","request":{}}]}`,
		`{"explain":true,"items":[{"op":"containment","request":` + adversarialContainment(60000) +
			`},{"op":"membership","request":{"expr":"a","word":["a"]}}]}`,
		`{"items":[{"op":"containment","request":{"engine":"kore","left":"` + deepParens + `","right":"a"}},` +
			`{"op":"membership","request":{"expr":"` + deepStars + `","word":["a"]}}]}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		code, raw := serve(h, "/v1/batch", body)
		switch {
		case code == http.StatusOK:
			if !json.Valid(raw) {
				t.Fatalf("200 with a body that is not JSON: %q", raw)
			}
		case code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout:
			t.Fatalf("POST /v1/batch = %d: %s", code, raw)
		}
		var req batchRequest
		var resp rawBatchResponse
		if code == http.StatusOK && json.Unmarshal([]byte(body), &req) == nil && json.Unmarshal(raw, &resp) == nil {
			if len(resp.Items) != len(req.Items) {
				t.Fatalf("%d items answered for %d sent", len(resp.Items), len(req.Items))
			}
			for i, item := range resp.Items {
				if item.Status != http.StatusOK {
					continue
				}
				single, singleRaw := serve(h, "/v1/"+req.Items[i].Op, string(req.Items[i].Request))
				if single != http.StatusOK {
					continue
				}
				if got, want := decisionFields(t, item.Response), decisionFields(t, singleRaw); got != want {
					t.Fatalf("item %d (%s) diverges from its endpoint:\n batch:  %s\n single: %s", i, item.Op, got, want)
				}
			}
		}
		for stop := time.Now().Add(time.Second); len(s.sem) != 0 || s.detached.Load() != 0; {
			if time.Now().After(stop) {
				t.Fatalf("inflight %d, detached engines %d: not drained 1s after the batch",
					len(s.sem), s.detached.Load())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// deepParens and deepStars are regex and DTD content-model texts one
// level past textio.MaxDepth: nested parentheses, and a postfix run.
var (
	deepParens = strings.Repeat("(", 1001) + "a" + strings.Repeat(")", 1001)
	deepStars  = "a" + strings.Repeat("*", 1001)
)

// serve posts body to path on h and returns the status and body.
func serve(h http.Handler, path, body string) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// decisionFields re-renders a decision response without the fields
// that may differ between two answers to the same request: elapsed_ms
// (wall clock), cached (the first answer fills the cache) and trace
// (explain output).
func decisionFields(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	delete(m, "elapsed_ms")
	delete(m, "cached")
	delete(m, "trace")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// FuzzNDJSONAnalyze sends arbitrary raw bodies under each body content
// type, with raw name, workers, deadline_ms, explain and corpus query
// values, to /v1/analyze on a server with an attached store holding one
// log and one triples corpus, and clamping every deadline to 50 ms. The
// invariants are FuzzDecide's: no panic, no 5xx other than 503 or 504,
// every 200 body is JSON, and the admission slots and detached engines
// drain back to zero.
func FuzzNDJSONAnalyze(f *testing.F) {
	const maxDeadline = 50 * time.Millisecond
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if _, err := st.IngestLog(ctx, "logs", []string{"SELECT ?x WHERE { ?x a ?y }", "ASK { ?s ?p ?o }", "(("}); err != nil {
		f.Fatal(err)
	}
	if _, err := st.IngestTriples(ctx, "graph", []rdf.Triple{{S: "s1", P: "knows", O: "s2"}, {S: "s2", P: "name", O: "x"}}); err != nil {
		f.Fatal(err)
	}
	s := New(Config{MaxDeadline: maxDeadline, Logger: discardLogger()})
	s.AttachStore(st)
	h := s.Handler()
	contentTypes := []string{"application/x-ndjson", "application/ndjson", "text/plain",
		"Text/Plain; charset=utf-8", "application/json", ""}

	f.Add("SELECT ?x WHERE { ?x a ?y }\nASK { ?s ?p ?o }\n", uint8(0), "robot", "2", "1000", "true", "")
	f.Add("SELECT * WHERE { ?s <p>+ ?o }\r\n\r\nnot a query\n", uint8(2), "", "-1", "0", "false", "")
	f.Add("", uint8(1), "", "", "", "true", "graph")
	f.Add("", uint8(3), "x", "99999999999999999999", "-5", "", "logs")
	f.Add("q\n", uint8(0), "", "", "", "", "graph")
	f.Add("", uint8(0), "", "", "", "", "absent")
	f.Add(`{"corpus":"graph","explain":true}`, uint8(4), "", "", "", "", "")
	f.Add(`{"queries":["SELECT ?x WHERE { ?x a ?y }"],"workers":3,"deadline_ms":1}`, uint8(5), "", "", "", "", "")
	f.Add("\x00\xff\n{\n", uint8(0), "%zz", "1e3", "NaN", "TRUE", "%00")
	// one level past textio.MaxDepth: a modifier run, an operator chain
	f.Add("SELECT * WHERE { ?x <p>"+strings.Repeat("*", 1001)+" ?y }\nSELECT * WHERE { ?s ?p ?o FILTER(?o"+
		strings.Repeat("+1", 1001)+") }\n", uint8(0), "", "", "", "", "")
	f.Fuzz(func(t *testing.T, body string, ct uint8, name, workers, deadline, explain, corpus string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		req.URL.RawQuery = "name=" + name + "&workers=" + workers + "&deadline_ms=" + deadline +
			"&explain=" + explain + "&corpus=" + corpus
		req.RequestURI = req.URL.RequestURI()
		if ctype := contentTypes[int(ct)%len(contentTypes)]; ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch code := w.Code; {
		case code == http.StatusOK:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("200 with a body that is not JSON: %q", w.Body.Bytes())
			}
		case code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout:
			t.Fatalf("POST %s = %d: %s", req.RequestURI, code, w.Body.Bytes())
		}
		for stop := time.Now().Add(20 * maxDeadline); len(s.sem) != 0 || s.detached.Load() != 0; {
			if time.Now().After(stop) {
				t.Fatalf("inflight %d, detached engines %d: not drained %v after the deadline",
					len(s.sem), s.detached.Load(), 20*maxDeadline)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
