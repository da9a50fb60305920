package service

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
)

func benchServer(b *testing.B, cacheSize int) *Server {
	b.Helper()
	return New(Config{CacheSize: cacheSize, Logger: log.New(io.Discard, "", 0)})
}

func doContainment(b *testing.B, s *Server, body string) int {
	req := httptest.NewRequest("POST", "/v1/containment", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkServeContainmentCold measures full request cost with a
// guaranteed cache miss per iteration (every request uses a fresh label,
// so verdict keys never repeat): parse + lower both sides into position
// tables + antichain search + JSON round trip.
func BenchmarkServeContainmentCold(b *testing.B) {
	s := benchServer(b, b.N+1)
	bodies := make([]string, b.N)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(
			`{"engine":"regex","left":"(a|b)* x%d","right":"(a|b)* (a|b) x%d"}`, i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doContainment(b, s, bodies[i]); code != 200 {
			b.Fatalf("code=%d", code)
		}
	}
}

// BenchmarkServeContainmentCacheHit measures the same request served
// from the verdict cache: decode + raw-key lookup + JSON round trip,
// skipping parsing and the decision procedure entirely.
func BenchmarkServeContainmentCacheHit(b *testing.B) {
	s := benchServer(b, 16)
	body := `{"engine":"regex","left":"(a|b)* x","right":"(a|b)* (a|b) x"}`
	if code := doContainment(b, s, body); code != 200 {
		b.Fatalf("warmup code=%d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doContainment(b, s, body); code != 200 {
			b.Fatalf("code=%d", code)
		}
	}
	b.StopTimer()
	if st := s.CacheStats(); st.Hits < uint64(b.N) {
		b.Fatalf("hits = %d, want >= %d", st.Hits, b.N)
	}
}

// decideSync runs both stages of op on body on the calling goroutine:
// prepare, then its run, if any, under ctx.
func decideSync(s *Server, ctx context.Context, op string, body []byte) (any, *apiError) {
	answer, run, aerr := decideOps[op](s, &request{}, body)
	if run == nil {
		return answer, aerr
	}
	return run(ctx)
}

// BenchmarkDecide measures the decide layer of each decide-hot op on a
// repeated input, called directly through the op table (no HTTP, no
// goroutine, no JSON encode): a containment and an infer verdict-cache
// hit, membership and DTD validation. Each runs with a warm compile
// cache, so an exact repeat skips parsing and compiling, and with a cold
// one (capacity 0), so every call parses and compiles as an uncached
// server would.
func BenchmarkDecide(b *testing.B) {
	ops := []struct{ name, op, body string }{
		{"containment-hit", "containment", `{"engine":"regex","left":"(a|b)* a (c|d)?","right":"(a|b|c|d)* (a|c) d? (a|b)*"}`},
		{"infer-hit", "infer", `{"algorithm":"sore","words":[["a","b","c"],["a","c"],["b","b","c"]]}`},
		{"membership", "membership", `{"expr":"(a (b|c)* d?)+ (a|b)* c","word":["a","b","c","d","a","c"]}`},
		{"validate", "validate", `{"kind":"dtd","schema":"<!ELEMENT r ((a|b)+, c?, (a|c)*)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>","docs":["r(a, b, c, a)","r(b, c)","r(c, a)"]}`},
	}
	for _, o := range ops {
		for _, warm := range []bool{true, false} {
			name := o.name + "/cold"
			if warm {
				name = o.name + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				s := benchServer(b, 0)
				if !warm {
					s.compiled = cache.New(0)
				}
				ctx := context.Background()
				body := []byte(o.body)
				// a warm-up call fills the verdict cache or the compile cache
				if _, aerr := decideSync(s, ctx, o.op, body); aerr != nil {
					b.Fatal(aerr)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, aerr := decideSync(s, ctx, o.op, body); aerr != nil {
						b.Fatal(aerr)
					}
				}
			})
		}
	}
}
