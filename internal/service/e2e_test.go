package service

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEndToEndMixedWorkload drives a concurrent mix of containment,
// validation, inference, and analysis requests (run under -race in CI)
// and then checks the observability surface: request counters must add
// up and repeated containment requests must be served from the cache.
func TestEndToEndMixedWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 32, CacheSize: 256})

	type reqSpec struct {
		path string
		body string
	}
	specs := []reqSpec{
		{"/v1/containment", `{"engine":"regex","left":"a b","right":"a (b|c)"}`},
		{"/v1/containment", `{"engine":"kore","left":"a a","right":"a*"}`},
		{"/v1/membership", `{"expr":"(a|b)* a","word":["b","a"]}`},
		{"/v1/validate", `{"kind":"dtd","schema":"<!ELEMENT r (a*)> <!ELEMENT a EMPTY>","docs":["r(a, a)","r(r)"]}`},
		{"/v1/infer", `{"algorithm":"sore","words":[["a","b"],["b"]]}`},
		{"/v1/analyze", `{"name":"mix","queries":["SELECT ?x WHERE { ?x ?p ?y }","ASK { ?a ?b ?c }"]}`},
	}
	// Warm the verdict cache sequentially: concurrent identical requests
	// may legitimately all miss before the first Put lands.
	warmed := 0
	for _, spec := range specs {
		if spec.path == "/v1/containment" {
			post(t, ts.URL, spec.path, spec.body, nil)
			warmed++
		}
	}

	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, len(specs)*perWorker)
	for w := 0; w < len(specs); w++ {
		for i := 0; i < perWorker; i++ {
			wg.Add(1)
			go func(spec reqSpec) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+spec.path, "application/json", strings.NewReader(spec.body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != 200 {
					raw, _ := io.ReadAll(resp.Body)
					errs <- fmt.Errorf("%s: code %d: %s", spec.path, resp.StatusCode, raw)
				}
			}(specs[(w+i)%len(specs)])
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := scrapeMetrics(t, ts.URL)
	total := 0
	for k, v := range m {
		if strings.HasPrefix(k, "rwd_op_duration_seconds_count{") {
			total += int(v)
		}
	}
	if want := len(specs)*perWorker + warmed; total != want {
		t.Fatalf("rwd_op_duration_seconds_count sums to %d, want %d", total, want)
	}
	// every concurrent containment request hits the warmed cache
	if hits := m["rwdserve_cache_hits_total"]; hits < float64(2*perWorker) {
		t.Fatalf("cache hits = %v, want >= %d", hits, 2*perWorker)
	}
	if m["rwdserve_inflight"] != 0 {
		t.Fatalf("inflight = %v after workload drained", m["rwdserve_inflight"])
	}
}

// TestCacheHitVisibleInMetrics is the acceptance check: a second
// identical containment request is served from the cache, verified via
// the /metrics counters (not only the response's cached flag).
func TestCacheHitVisibleInMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"engine":"regex","left":"(a|b)*","right":"a* (b a*)*"}`
	var first, second containmentResponse
	post(t, ts.URL, "/v1/containment", body, &first)
	before := scrapeMetrics(t, ts.URL)
	post(t, ts.URL, "/v1/containment", body, &second)
	after := scrapeMetrics(t, ts.URL)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first=%v second=%v", first.Cached, second.Cached)
	}
	if first.Contained != second.Contained {
		t.Fatalf("cache changed the verdict: %v vs %v", first.Contained, second.Contained)
	}
	if after["rwdserve_cache_hits_total"] != before["rwdserve_cache_hits_total"]+1 {
		t.Fatalf("cache hits %v -> %v, want +1",
			before["rwdserve_cache_hits_total"], after["rwdserve_cache_hits_total"])
	}
	if after["rwdserve_cache_misses_total"] != before["rwdserve_cache_misses_total"] {
		t.Fatalf("cache misses moved on a hit: %v -> %v",
			before["rwdserve_cache_misses_total"], after["rwdserve_cache_misses_total"])
	}
}

// TestGracefulDrain exercises the SIGTERM path via Serve's shutdown
// channel: a request in flight when shutdown begins must still get its
// response, and Serve must return only after it did.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shutdown := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- s.Serve(l, shutdown, 10*time.Second) }()
	base := "http://" + l.Addr().String()

	// in-flight adversarial request that will end at its 400ms deadline
	type result struct {
		code int
		at   time.Time
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/containment", "application/json",
			strings.NewReader(adversarialContainment(400)))
		if err != nil {
			t.Error(err)
			resc <- result{0, time.Now()}
			return
		}
		resp.Body.Close()
		resc <- result{resp.StatusCode, time.Now()}
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the engine
	close(shutdown)

	res := <-resc
	if res.code != 504 {
		t.Fatalf("in-flight request code=%d, want 504", res.code)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil after clean drain", err)
	}
	if exited := time.Now(); exited.Before(res.at) {
		t.Fatal("Serve returned before the in-flight response was written")
	}
	// new connections are refused after drain
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

var metricLine = regexp.MustCompile(`^([a-zA-Z_]+(?:\{[^}]*\})?) ([0-9.eE+-]+)$`)

// scrapeMetrics fetches /metrics and returns series name (with labels)
// -> value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = v
	}
	return out
}
