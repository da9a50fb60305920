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
// so canonical keys never repeat): parse + canonicalize + lower both
// sides into position tables + antichain search + JSON round trip.
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
// from the verdict cache: parse + canonicalize + lookup + JSON round
// trip, skipping the decision procedure entirely.
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

// BenchmarkDecide measures the decide layer of each decide-hot op on a
// repeated input, called directly (no HTTP, no JSON encode): a
// containment verdict-cache hit, membership and DTD validation. Each runs
// with a warm compile cache, so an exact repeat skips parsing and
// compiling, and with a cold one (capacity 0), so every call parses and
// compiles as an uncached server would.
func BenchmarkDecide(b *testing.B) {
	ops := []struct{ name, op, body string }{
		{"containment-hit", "containment", `{"engine":"regex","left":"(a|b)* a (c|d)?","right":"(a|b|c|d)* (a|c) d? (a|b)*"}`},
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
				decide := decideOps[o.op]
				// two warm-up calls: the first fills the verdict cache, the
				// second writes the containment alias
				for i := 0; i < 2; i++ {
					if _, aerr := decide(s, ctx, body, false); aerr != nil {
						b.Fatal(aerr)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, aerr := decide(s, ctx, body, false); aerr != nil {
						b.Fatal(aerr)
					}
				}
			})
		}
	}
}
