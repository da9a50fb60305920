package serveload

import (
	"io"
	"log"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// TestStreamDeterminism is the baseline-comparability guarantee: two
// streams constructed with the same (seed, worker) pair must issue a
// byte-identical request sequence, so two -serve-load runs with the same
// seed measure the same workload.
func TestStreamDeterminism(t *testing.T) {
	const n = 2000
	for _, worker := range []int{0, 1, 7} {
		a, b := NewStream(42, worker), NewStream(42, worker)
		for i := 0; i < n; i++ {
			ra, rb := a.Next(), b.Next()
			if ra != rb {
				t.Fatalf("worker %d diverged at request %d:\n a: %+v\n b: %+v", worker, i, ra, rb)
			}
			if ra.Kind == "" || ra.Path == "" || ra.ContentType == "" {
				t.Fatalf("request %d incomplete: %+v", i, ra)
			}
		}
	}
}

// TestStreamWorkersDiffer: distinct workers (and distinct seeds) must
// not replay each other's stream, or concurrency would measure nothing
// but the verdict cache.
func TestStreamWorkersDiffer(t *testing.T) {
	same := 0
	a, b, c := NewStream(42, 0), NewStream(42, 1), NewStream(43, 0)
	for i := 0; i < 200; i++ {
		ra, rb, rc := a.Next(), b.Next(), c.Next()
		if ra == rb || ra == rc {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("%d/200 requests identical across workers/seeds", same)
	}
}

// TestStreamCoversEveryKind: over a long horizon the mix must include
// every endpoint family, including the streaming and adversarial shares.
func TestStreamCoversEveryKind(t *testing.T) {
	want := []string{"containment", "membership", "validate", "infer",
		"analyze", "batch", "analyze-stream", "containment-adversarial"}
	seen := map[string]int{}
	s := NewStream(7, 3)
	for i := 0; i < 3000; i++ {
		seen[s.Next().Kind]++
	}
	for _, k := range want {
		if seen[k] == 0 {
			t.Errorf("kind %q never generated (mix: %v)", k, seen)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 0.5); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := percentile(xs, 0.99); p != 5 {
		t.Fatalf("p99 = %v, want 5", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
	// the report invariant CI checks: p99 >= p50 for any sample set
	if percentile(xs, 0.99) < percentile(xs, 0.5) {
		t.Fatal("p99 < p50")
	}
}

// TestRunAgainstService exercises the whole generator end-to-end against
// an in-process server: bounded per-worker request counts, a populated
// report, and the percentile ordering the CI sanity check relies on.
func TestRunAgainstService(t *testing.T) {
	srv := service.New(service.Config{Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		BaseURL:              ts.URL,
		Seed:                 1,
		Duration:             5 * time.Second,
		Concurrency:          2,
		MaxRequestsPerWorker: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 80 {
		t.Fatalf("requests = %d, want 2 workers x 40", rep.Requests)
	}
	if rep.RPS <= 0 || rep.DurationSeconds <= 0 {
		t.Fatalf("rps=%v duration=%v", rep.RPS, rep.DurationSeconds)
	}
	if rep.LatencyMS.P99 < rep.LatencyMS.P50 {
		t.Fatalf("p99 %v < p50 %v", rep.LatencyMS.P99, rep.LatencyMS.P50)
	}
	if rep.Seed != 1 || rep.Tool == "" || rep.SchemaVersion != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	total := 0
	for _, n := range rep.Status {
		total += n
	}
	if total != rep.Requests {
		t.Fatalf("status counts sum to %d, want %d", total, rep.Requests)
	}
	if rep.Cache.Hits+rep.Cache.Misses == 0 {
		t.Fatal("cache counters never scraped")
	}
	if rep.ServerTimeouts != float64(rep.Timeouts) || rep.ClientClosed != 0 {
		t.Fatalf("server timeouts %v / client closed %v, want %d / 0 (the client's 504s)",
			rep.ServerTimeouts, rep.ClientClosed, rep.Timeouts)
	}

	// The profile block mirrors the server's /v1/stats lifetime view;
	// for the private in-process server it covers exactly this run.
	if len(rep.Profile) == 0 {
		t.Fatal("profile block never scraped")
	}
	var profiled uint64
	for key, row := range rep.Profile {
		profiled += row.Requests
		if row.P99MS < row.P50MS {
			t.Errorf("%s: p99 %.3f < p50 %.3f", key, row.P99MS, row.P50MS)
		}
	}
	if profiled != uint64(rep.Requests) {
		t.Fatalf("profile rows cover %d requests, client sent %d", profiled, rep.Requests)
	}
}
