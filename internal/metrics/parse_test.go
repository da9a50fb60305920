package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseTextRoundTrip: everything the registry renders must come back
// out of ParseText with the same series keys and values.
func TestParseTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.CounterVec("rt_requests_total", "requests", "endpoint", "code")
	reqs.With("containment", "200").Add(7)
	reqs.With("analyze", "504").Add(2)
	reg.GaugeFunc("rt_inflight", "inflight", func() float64 { return 3 })
	reg.HistogramVec("rt_seconds", "latency", DefBuckets, "endpoint").
		With("containment").Observe(0.02)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v := got[`rt_requests_total{endpoint="containment",code="200"}`]; v != 7 {
		t.Fatalf("containment counter = %v, want 7 (parsed: %v)", v, got)
	}
	if v := got[`rt_requests_total{endpoint="analyze",code="504"}`]; v != 2 {
		t.Fatalf("analyze counter = %v, want 2", v)
	}
	if v := got["rt_inflight"]; v != 3 {
		t.Fatalf("gauge = %v, want 3", v)
	}
	foundBucket := false
	for series, v := range got {
		if strings.HasPrefix(series, "rt_seconds_bucket{") && v > 0 {
			foundBucket = true
		}
	}
	if !foundBucket {
		t.Fatal("no histogram bucket series parsed")
	}
	if got["rt_seconds_count{endpoint=\"containment\"}"] != 1 {
		t.Fatal("histogram count series missing")
	}
}

func TestParseTextSkipsCommentsAndMalformed(t *testing.T) {
	in := `# HELP x y
# TYPE x counter
x 1
ok{l="a b c"} 2.5

malformed-no-value
also_malformed abc
y{v="+Inf bucket"} 4
`
	got, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d series, want 3: %v", len(got), got)
	}
	if got["x"] != 1 || got[`ok{l="a b c"}`] != 2.5 || got[`y{v="+Inf bucket"}`] != 4 {
		t.Fatalf("values: %v", got)
	}
}
