package metrics

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterVecText(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "Requests by endpoint and code.", "endpoint", "code")
	v.With("containment", "200").Add(3)
	v.With("containment", "504").Inc()
	out := render(t, r)
	for _, want := range []string{
		"# HELP requests_total Requests by endpoint and code.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="containment",code="200"} 3`,
		`requests_total{endpoint="containment",code="504"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("inflight", "In-flight requests.", "pool").With("main")
	g.Add(2)
	g.Add(-1)
	r.GaugeFunc("cache_size", "Entries.", func() float64 { return 42 })
	out := render(t, r)
	if !strings.Contains(out, `inflight{pool="main"} 1`+"\n") {
		t.Fatalf("gauge missing:\n%s", out)
	}
	if !strings.Contains(out, "cache_size 42\n") {
		t.Fatalf("gauge func missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE inflight gauge") {
		t.Fatalf("gauge type missing:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("latency_seconds", "Latency.", []float64{0.1, 1, 10}, "endpoint")
	obs := h.With("x")
	obs.Observe(0.05)
	obs.Observe(0.5)
	obs.Observe(0.1) // boundary: belongs to le="0.1"
	obs.Observe(100) // +Inf only
	out := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{endpoint="x",le="0.1"} 2`,
		`latency_seconds_bucket{endpoint="x",le="1"} 3`,
		`latency_seconds_bucket{endpoint="x",le="10"} 3`,
		`latency_seconds_bucket{endpoint="x",le="+Inf"} 4`,
		`latency_seconds_count{endpoint="x"} 4`,
		`latency_seconds_sum{endpoint="x"} 100.65`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("dup", "x", "l")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate registration")
		}
	}()
	r.HistogramVec("dup", "y", DefBuckets, "l")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "x", "l")
	h := r.HistogramVec("h", "x", DefBuckets, "l").With("a")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.With("a").Inc()
				v.With("b").Inc()
				h.Observe(float64(j) / 1000)
			}
		}(i)
	}
	wg.Wait()
	if got := v.With("a").Value(); got != 8000 {
		t.Fatalf("counter a = %d, want 8000", got)
	}
	out := render(t, r)
	if !strings.Contains(out, `h_count{l="a"} 8000`) {
		t.Fatalf("histogram count wrong:\n%s", out)
	}
}
