package service

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
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

// TestParseEnvelopeOnce covers the three envelope sources: inline JSON,
// query string in stream mode, and the zero envelope for malformed JSON.
func TestParseEnvelope(t *testing.T) {
	jsonReq := &request{body: []byte(`{"explain":true,"deadline_ms":250,"left":"a"}`)}
	if env := parseEnvelope(jsonReq); !env.Explain || env.DeadlineMS != 250 {
		t.Fatalf("json envelope = %+v", env)
	}

	q, _ := url.ParseQuery("deadline_ms=90&explain=true&name=log")
	streamReq := &request{body: []byte("not json at all\n"), ndjson: true, query: q}
	if env := parseEnvelope(streamReq); !env.Explain || env.DeadlineMS != 90 {
		t.Fatalf("stream envelope = %+v", env)
	}

	// stream mode must NOT read the body even if it looks like JSON
	streamReq2 := &request{body: []byte(`{"deadline_ms":1}`), ndjson: true, query: url.Values{}}
	if env := parseEnvelope(streamReq2); env.DeadlineMS != 0 {
		t.Fatalf("stream envelope read the body: %+v", env)
	}

	if env := parseEnvelope(&request{body: []byte("garbage")}); env != (envelope{}) {
		t.Fatalf("malformed body envelope = %+v, want zero", env)
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
