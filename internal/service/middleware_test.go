package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
)

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// waitFor polls cond for up to 5s. The slot-release and metrics paths
// run on goroutines the test can't join directly.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const (
	containment408 = `rwd_op_duration_seconds_count{op="containment",status="408"}`
	containment504 = `rwd_op_duration_seconds_count{op="containment",status="504"}`
)

// TestClientClosedCounts408 is the regression test for the timeout-vs-
// disconnect split: a client that abandons an in-flight request must be
// counted with status 408, not 504 — before the fix both paths landed on
// 504 and the timeout count.
func TestClientClosedCounts408(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/containment", strings.NewReader(adversarialContainment(60000)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(50 * time.Millisecond) // let the engine start
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the canceled request to fail client-side")
	}

	waitFor(t, "408 count", func() bool {
		return scrapeMetrics(t, ts.URL)[containment408] == 1
	})
	if v := scrapeMetrics(t, ts.URL)[containment504]; v != 0 {
		t.Fatalf("disconnect was counted as a server timeout (%v)", v)
	}
	waitFor(t, "admission slot release", func() bool {
		return scrapeMetrics(t, ts.URL)["rwdserve_inflight"] == 0
	})
}

// TestDeadlineStillCounts504 pins the other half of the split: a real
// deadline expiry stays 504 in both the response and the request count,
// with the 408 count untouched.
func TestDeadlineStillCounts504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var e map[string]string
	if code := post(t, ts.URL, "/v1/containment", adversarialContainment(80), &e); code != 504 {
		t.Fatalf("code=%d, want 504", code)
	}
	m := scrapeMetrics(t, ts.URL)
	if m[containment504] != 1 {
		t.Fatalf("504 count = %v, want 1", m[containment504])
	}
	if m[containment408] != 0 {
		t.Fatalf("408 count = %v, want 0", m[containment408])
	}
}

// TestRequestCountsReconcile drives one request per outcome the
// middleware can produce and checks that rwd_op_duration_seconds_count
// — the one request histogram, fed at root-span finish — holds exactly
// what the client saw, per (op, status). The retired per-endpoint
// families are its rows: requests_total is every row, timeouts the 504
// rows, client_closed the 408 rows, rejected{overload|too_large} the
// 429|413 rows. The request's root span feeds no rwd_span_seconds row.
func TestRequestCountsReconcile(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1, MaxBodyBytes: 1024})
	type key struct{ op, status string }
	sent := map[key]int{}
	do := func(op, path, body string) {
		t.Helper()
		sent[key{op, strconv.Itoa(post(t, ts.URL, path, body, nil))}]++
	}

	do("membership", "/v1/membership", `{"expr":"a","word":["a"]}`)
	do("containment", "/v1/containment", `not json`)
	do("containment", "/v1/containment", `{"left":"`+strings.Repeat("a ", 1000)+`"}`)

	// 504 while it holds the only admission slot, so a second request
	// meanwhile is shed with 429.
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/containment", "application/json",
			strings.NewReader(adversarialContainment(500)))
		if err != nil {
			t.Error(err)
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	waitFor(t, "the slow request to hold the slot", func() bool {
		return scrapeMetrics(t, ts.URL)["rwdserve_inflight"] == 1
	})
	do("infer", "/v1/infer", `{"algorithm":"sore","words":[["a"]]}`)
	sent[key{"containment", strconv.Itoa(<-slow)}]++
	waitFor(t, "slot release", func() bool {
		return scrapeMetrics(t, ts.URL)["rwdserve_inflight"] == 0
	})

	// 408: the client hangs up mid-engine and so never reads a status.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/containment", strings.NewReader(adversarialContainment(60000)))
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the canceled request to fail client-side")
	}
	sent[key{"containment", "408"}]++

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sent[key{"traces", strconv.Itoa(resp.StatusCode)}]++

	for _, want := range []key{{"membership", "200"}, {"containment", "400"}, {"containment", "413"},
		{"containment", "504"}, {"infer", "429"}, {"containment", "408"}, {"traces", "200"}} {
		if sent[want] != 1 {
			t.Fatalf("client saw %v %d times, want once (all: %v)", want, sent[want], sent)
		}
	}
	waitFor(t, "408 count", func() bool { return scrapeMetrics(t, ts.URL)[containment408] == 1 })

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	m, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range sent {
		series := fmt.Sprintf("rwd_op_duration_seconds_count{op=%q,status=%q}", k.op, k.status)
		if int(m[series]) != n {
			t.Errorf("%s = %v, client saw %d", series, m[series], n)
		}
	}
	counted := 0
	for series := range m {
		if strings.HasPrefix(series, "rwd_op_duration_seconds_count{") {
			counted++
		}
	}
	if counted != len(sent) {
		t.Errorf("%d (op, status) rows, client saw %d distinct outcomes", counted, len(sent))
	}
	if strings.Contains(text, `rwd_span_seconds_count{span="http.`) {
		t.Error("a request's root span fed rwd_span_seconds")
	}
	for _, family := range []string{
		"rwdserve_requests_total", "rwdserve_request_seconds", "rwdserve_timeouts_total",
		"rwdserve_client_closed_total", "rwdserve_rejected_total",
		"rwd_store_flush_seconds", "rwd_store_compactions_total",
		"rwd_slow_ops_seen_total", "rwd_slow_ops_logged_total",
	} {
		if strings.Contains(text, family) {
			t.Errorf("retired family %s is still on /metrics", family)
		}
	}
}

// TestSlotHeldUntilEngineExits is the regression test for the admission
// leak: before the fix, endpoint() released the semaphore slot when the
// handler returned, even though a timed-out engine goroutine was still
// computing — sustained timeout traffic could stack unbounded background
// engines. Now the last of {handler, engines} to finish releases the
// slot, and detached engines are visible on a gauge.
func TestSlotHeldUntilEngineExits(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: discardLogger()})

	// acquire the slot exactly as endpoint() does
	s.sem <- struct{}{}
	slot := &slotGuard{sem: s.sem, detached: &s.detached}
	req := &request{slot: slot}

	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel() // the request times out while the engine is stuck
	}()
	_, aerr := runEngine(ctx, req, func(context.Context) (any, *apiError) {
		<-block // an engine with no cancellation checkpoint
		return "late verdict", nil
	})
	if aerr == nil || aerr.status != http.StatusRequestTimeout {
		t.Fatalf("runEngine returned %+v, want 408", aerr)
	}

	// handler returns; the engine is still running, so the slot must
	// stay held and the engine counts as detached.
	slot.handlerReturned()
	if len(s.sem) != 1 {
		t.Fatal("slot released while an engine goroutine was still running")
	}
	if got := s.detached.Load(); got != 1 {
		t.Fatalf("detached gauge = %d, want 1", got)
	}

	// a second acquisition attempt must shed, as endpoint() would
	select {
	case s.sem <- struct{}{}:
		t.Fatal("admission gate admitted a request past the cap")
	default:
	}

	close(block) // the engine finally exits
	waitFor(t, "slot release after engine exit", func() bool {
		return len(s.sem) == 0 && s.detached.Load() == 0
	})
}

// TestSlotReleasedOnCleanFinish: the common case — engine finishes
// before the handler returns — releases exactly once with no detached
// accounting.
func TestSlotReleasedOnCleanFinish(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: discardLogger()})
	s.sem <- struct{}{}
	slot := &slotGuard{sem: s.sem, detached: &s.detached}
	req := &request{slot: slot}

	out, aerr := runEngine(context.Background(), req, func(context.Context) (any, *apiError) {
		return 42, nil
	})
	if aerr != nil || out.(int) != 42 {
		t.Fatalf("runEngine = %v, %v", out, aerr)
	}
	if len(s.sem) != 1 {
		t.Fatal("slot released before the handler returned")
	}
	slot.handlerReturned()
	if len(s.sem) != 0 || s.detached.Load() != 0 {
		t.Fatalf("sem=%d detached=%d after clean finish", len(s.sem), s.detached.Load())
	}
	slot.handlerReturned() // idempotent: never double-releases
	if len(s.sem) != 0 {
		t.Fatal("double release")
	}
}

// TestEngineExitsBeforeResult checks that runEngine's engine has
// exited by the time its result is received: over 1,000 calls the
// guard counts no running engine when runEngine returns, so the
// handler's return releases the slot at once and counts nothing as
// detached.
func TestEngineExitsBeforeResult(t *testing.T) {
	s := New(Config{MaxInFlight: 1, Logger: discardLogger()})
	for i := 0; i < 1000; i++ {
		s.sem <- struct{}{}
		slot := &slotGuard{sem: s.sem, detached: &s.detached}
		if _, aerr := runEngine(context.Background(), &request{slot: slot}, func(context.Context) (any, *apiError) {
			return i, nil
		}); aerr != nil {
			t.Fatalf("call %d: %d %s", i, aerr.status, aerr.msg)
		}
		slot.mu.Lock()
		engines := slot.engines
		slot.mu.Unlock()
		if engines != 0 {
			t.Fatalf("call %d: %d engines still running after the result was received", i, engines)
		}
		slot.handlerReturned()
		if len(s.sem) != 0 || s.detached.Load() != 0 {
			t.Fatalf("call %d: sem=%d detached=%d after the handler returned", i, len(s.sem), s.detached.Load())
		}
	}
}

// captured serves h as endpoint name does and keeps the request h saw,
// so a test can read the envelope and deadline the handler armed.
func captured(s *Server, name string, h handlerFunc, got **request) http.Handler {
	return s.endpoint(name, func(ctx context.Context, req *request) (any, *apiError) {
		*got = req
		return h(ctx, req)
	})
}

// TestEnvelopeSingleDecode sends every kind of request with an envelope
// through the middleware and the endpoint's own handler: the handler's
// one decode (the query string's, for NDJSON) must yield the envelope,
// explain must return a trace, and the deadline armed for the run must
// be deadline_ms after the body read. A /v1/batch item's own envelope
// fields change nothing.
func TestEnvelopeSingleDecode(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(Config{Logger: discardLogger()})
	s.AttachStore(st)

	const env = `"explain":true,"deadline_ms":4321`
	item := `{"engine":"regex","left":"a","right":"a|b","explain":false,"deadline_ms":1}`
	for _, c := range []struct {
		name, path, ctype, body string
		h                       handlerFunc
	}{
		{"containment", "/v1/containment", "", `{"engine":"regex","left":"a b","right":"a (b|c)",` + env + `}`, s.decideHandler(decideOps["containment"])},
		{"membership", "/v1/membership", "", `{"expr":"(a|b)* a","word":["b","a"],` + env + `}`, s.decideHandler(decideOps["membership"])},
		{"validate", "/v1/validate", "", `{"kind":"dtd","schema":"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>","docs":["r(a)"],` + env + `}`, s.decideHandler(decideOps["validate"])},
		{"infer", "/v1/infer", "", `{"algorithm":"sore","words":[["a","b"],["b"]],` + env + `}`, s.decideHandler(decideOps["infer"])},
		{"analyze", "/v1/analyze", "", `{"queries":["SELECT ?x WHERE { ?x ?p ?y }"],` + env + `}`, s.handleAnalyze},
		// a stream's envelope is its query string: a JSON-shaped line is
		// one more (invalid) query
		{"analyze-ndjson", "/v1/analyze?explain=true&deadline_ms=4321", "application/x-ndjson", "SELECT ?x WHERE { ?x ?p ?y }\n" + `{"explain":false,"deadline_ms":1}` + "\n", s.handleAnalyze},
		{"batch", "/v1/batch", "", `{"items":[{"op":"containment","request":` + item + `}],` + env + `}`, s.handleBatch},
		{"corpora_ingest", "/v1/corpora", "", `{"name":"g","triples":[["a","p","b"]],` + env + `}`, s.handleCorporaIngest},
	} {
		t.Run(c.name, func(t *testing.T) {
			var req *request
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
			if c.ctype != "" {
				r.Header.Set("Content-Type", c.ctype)
			}
			captured(s, c.name, c.h, &req).ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("code=%d body=%s", w.Code, w.Body)
			}
			if req.env != (envelope{Explain: true, DeadlineMS: 4321}) {
				t.Fatalf("envelope = %+v", req.env)
			}
			if want := req.start.Add(4321 * time.Millisecond); !req.deadline.Equal(want) {
				t.Fatalf("deadline %v, want the body read's end %v + 4321ms", req.deadline, req.start)
			}
			var out struct {
				Trace *obs.Node `json:"trace"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || out.Trace == nil {
				t.Fatalf("explain returned no trace (%v): %s", err, w.Body)
			}
		})
	}

	// a batch without an envelope keeps its own, whatever its items say
	var req *request
	w := httptest.NewRecorder()
	captured(s, "batch", s.handleBatch, &req).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"items":[{"op":"containment","request":{"engine":"regex","left":"a","right":"b","explain":true,"deadline_ms":1}}]}`)))
	if w.Code != http.StatusOK || req.env != (envelope{}) || strings.Contains(w.Body.String(), `"trace"`) {
		t.Fatalf("code=%d envelope=%+v body=%s: an item's envelope leaked into the batch's", w.Code, req.env, w.Body)
	}
	if want := req.start.Add(s.cfg.DefaultDeadline); !req.deadline.Equal(want) {
		t.Fatalf("batch deadline %v, want %v", req.deadline, want)
	}
}

// TestCacheHitArmsNoDeadline checks that a verdict-cache hit is answered
// without arming a deadline: only a run starts a timer.
func TestCacheHitArmsNoDeadline(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	body := `{"engine":"regex","left":"a","right":"a|b"}`
	for i, wantArmed := range []bool{true, false} {
		var req *request
		w := httptest.NewRecorder()
		captured(s, "containment", s.decideHandler(decideOps["containment"]), &req).
			ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/containment", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("call %d: code=%d body=%s", i, w.Code, w.Body)
		}
		if armed := req.cancel != nil; armed != wantArmed {
			t.Fatalf("call %d: armed=%v, want %v", i, armed, wantArmed)
		}
	}
}

// stampReader reads a body and records when it returned EOF.
type stampReader struct {
	r   io.Reader
	eof time.Time
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF && s.eof.IsZero() {
		s.eof = time.Now()
	}
	return n, err
}

// TestDeadlineCountsFromBodyRead pins the deadline instant: no earlier
// than the end of the body read plus deadline_ms, no later than the
// handler's return plus the same amount.
func TestDeadlineCountsFromBodyRead(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	body := `{"expr":"(a|b)* a","word":["b","a"],"deadline_ms":750}`
	for _, declared := range []bool{true, false} {
		var req *request
		sr := &stampReader{r: strings.NewReader(body)}
		r := httptest.NewRequest(http.MethodPost, "/v1/membership", sr)
		r.ContentLength = -1
		if declared {
			r.ContentLength = int64(len(body))
		}
		w := httptest.NewRecorder()
		captured(s, "membership", s.decideHandler(decideOps["membership"]), &req).ServeHTTP(w, r)
		returned := time.Now()
		if w.Code != http.StatusOK {
			t.Fatalf("code=%d body=%s", w.Code, w.Body)
		}
		d := 750 * time.Millisecond
		if req.deadline.Before(sr.eof.Add(d)) || req.deadline.After(returned.Add(d)) {
			t.Fatalf("declared=%v: deadline %v outside [%v, %v]", declared, req.deadline, sr.eof.Add(d), returned.Add(d))
		}
	}
}

// TestBodyReadContentLength covers a declared length over the cap,
// refused with a 413 before any buffer of the declared size exists, and
// declared lengths larger and smaller than the body, both answered as
// with the true length.
func TestBodyReadContentLength(t *testing.T) {
	s := New(Config{Logger: discardLogger(), MaxBodyBytes: 1 << 20})
	h := s.Handler()
	body := `{"expr":"(a|b)* a","word":["b","a"]}`
	serve := func(declared int64) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/membership", strings.NewReader(body))
		r.ContentLength = declared
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := serve(1 << 40)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "exceeds 1048576 bytes") {
		t.Fatalf("declared 1 TiB: code=%d body=%s, want 413", w.Code, w.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("refusing a declared 1 TiB body allocated %d bytes", n)
	}

	want := serve(int64(len(body)))
	if want.Code != http.StatusOK {
		t.Fatalf("true length: code=%d body=%s", want.Code, want.Body)
	}
	for _, declared := range []int64{int64(len(body)) + 100, int64(len(body)) - 5} {
		if w := serve(declared); w.Code != want.Code || w.Body.String() != want.Body.String() {
			t.Fatalf("declared %d of %d bytes: code=%d body=%s, want %d %s",
				declared, len(body), w.Code, w.Body, want.Code, want.Body)
		}
	}
}

// TestNonBoolExplainIs400 checks that every decide op rejects a
// non-boolean explain: the envelope is decoded with the op's body.
func TestNonBoolExplainIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, body := range map[string]string{
		"/v1/containment": `{"engine":"regex","left":"a","right":"a","explain":"yes"}`,
		"/v1/membership":  `{"expr":"a","word":["a"],"explain":"yes"}`,
		"/v1/validate":    `{"kind":"dtd","schema":"<!ELEMENT r EMPTY>","docs":["r"],"explain":"yes"}`,
		"/v1/infer":       `{"algorithm":"sore","words":[["a"]],"explain":"yes"}`,
	} {
		var e map[string]string
		if code := post(t, ts.URL, path, body, &e); code != http.StatusBadRequest || !strings.Contains(e["error"], "invalid JSON") {
			t.Errorf("%s: code=%d error=%q, want 400 invalid JSON", path, code, e["error"])
		}
	}
}

func TestStreamingBodyContentTypes(t *testing.T) {
	cases := map[string]bool{
		"application/x-ndjson":            true,
		"application/ndjson":              true,
		"text/plain":                      true,
		"text/plain; charset=utf-8":       true,
		"Application/X-NDJSON":            true,
		"application/json":                false,
		"":                                false,
		"application/json; charset=utf-8": false,
	}
	for ct, want := range cases {
		r, _ := http.NewRequest(http.MethodPost, "/v1/analyze", nil)
		if ct != "" {
			r.Header.Set("Content-Type", ct)
		}
		if got := streamingBody(r); got != want {
			t.Errorf("streamingBody(%q) = %v, want %v", ct, got, want)
		}
	}
}
