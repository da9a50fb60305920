package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/automata"
	"repro/internal/regex"
)

// containmentOutcome renders a containment answer without the fields
// that differ between a first answer and a cached repeat: cached and
// elapsed_ms.
func containmentOutcome(t *testing.T, v any, aerr *apiError) string {
	t.Helper()
	if aerr != nil {
		return fmt.Sprintf("%d %s", aerr.status, aerr.msg)
	}
	resp, ok := v.(containmentResponse)
	if !ok {
		t.Fatalf("containment answered %T", v)
	}
	resp.Cached, resp.ElapsedMS = false, 0
	return fmt.Sprintf("%+v", resp)
}

// dirt is a long expression over one label, dirtLabel, that the
// retention test parses into released slabs before they go back in the
// pool, so that the next run parses into dirty slabs.
const dirtLabel = "dirt"

var dirt = strings.Repeat(dirtLabel+" ("+dirtLabel+" | "+dirtLabel+")* ", 40)

// inspectSlabs reads sl's unexported slabs through reflect, since no
// production code needs them. It returns their total capacity, whether
// any slot up to capacity is set, and whether a node holds dirtLabel.
func inspectSlabs(sl *regex.Slabs) (capacity int, set, dirty bool) {
	v := reflect.ValueOf(sl).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		capacity += f.Cap()
		f = f.Slice(0, f.Cap())
		for j := range f.Len() {
			e := f.Index(j)
			if e.IsZero() {
				continue
			}
			set = true
			if e.Kind() == reflect.Struct && e.FieldByName("Sym").String() == dirtLabel {
				dirty = true
			}
		}
	}
	return capacity, set, dirty
}

// TestSlabPairRetention decides fresh regex and kore pairs, and some
// whose right side fails to parse after the left side parsed into the
// slabs, through decideSync. After each, the pair taken back out of the
// pool must hold no label and no child pointer anywhere up to capacity;
// the test then parses dirt into both sides and puts the pair back, so
// the next run parses into dirty slabs. Every answer, first and cached,
// must equal a cache-less server's.
func TestSlabPairRetention(t *testing.T) {
	bodies := append(decideColdBodies("regex", 64), decideColdBodies("kore", 64)...)
	for i := range 8 {
		bodies = append(bodies, fmt.Appendf(nil, `{"engine":"regex","left":"a%d (b|c)*","right":"a ((b"}`, i))
	}
	s := New(Config{Logger: discardLogger()})
	fresh := New(Config{CacheSize: -1, Logger: discardLogger()})
	ctx := context.Background()
	want := make([]string, len(bodies))
	reused := 0
	for i, body := range bodies {
		v, aerr := decideSync(fresh, ctx, "containment", body)
		want[i] = containmentOutcome(t, v, aerr)
		v, aerr = decideSync(s, ctx, "containment", body)
		if got := containmentOutcome(t, v, aerr); got != want[i] {
			t.Fatalf("%s: answered %s, cache-less server %s", body, got, want[i])
		}

		p := slabPairs.Get().(*slabPair)
		for side := range p.sides {
			capacity, set, dirty := inspectSlabs(&p.sides[side])
			switch {
			case dirty:
				// A pair this test dirtied, which the run did not take
				// because it went back on another P.
			case set:
				t.Fatalf("%s: released side %d keeps a label or a child pointer", body, side)
			case capacity > 0:
				reused++
			}
			if _, err := regex.ParseInto(dirt, &p.sides[side]); err != nil {
				t.Fatal(err)
			}
		}
		slabPairs.Put(p)
	}
	// Most pairs come straight back out of the pool. One that a
	// collection dropped, that the race detector's pool dropped at
	// random (a quarter of puts) or that went back on another P is a
	// fresh or dirty pair instead.
	if reused < len(bodies) {
		t.Fatalf("%d of %d released sides came back out of the pool, want at least half", reused, 2*len(bodies))
	}

	hits := s.CacheStats().Hits
	for i, body := range bodies {
		v, aerr := decideSync(s, ctx, "containment", body)
		if got := containmentOutcome(t, v, aerr); got != want[i] {
			t.Fatalf("%s: replay answered %s, cache-less server %s", body, got, want[i])
		}
	}
	if got, want := s.CacheStats().Hits-hits, uint64(len(bodies)-8); got != want {
		t.Fatalf("replay: %d verdict-cache hits, want %d", got, want)
	}
}

// TestContainmentSlabsConcurrent sends fresh regex and kore pairs from
// several goroutines through Server.Handler(), mixed with antichain-hard
// pairs under a 2 ms deadline whose runs detach while they hold their
// slabs; a third of the fresh pairs ask for explain. Every 200 answer
// must be the verdict of automata.Contains on trees from Parse, and the
// detached engines must drain to 0.
func TestContainmentSlabsConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 64})
	h := s.Handler()
	hard := automata.AntichainHardExpr(16)
	hardBody, _ := json.Marshal(map[string]any{"engine": "regex", "left": hard, "right": hard, "deadline_ms": 2})
	bodies := append(decideColdBodies("regex", 64), decideColdBodies("kore", 64)...)
	want := make([]bool, len(bodies))
	for i, body := range bodies {
		var req containmentRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		want[i] = automata.Contains(regex.MustParse(req.Left), regex.MustParse(req.Right))
	}

	const workers = 4
	var wg sync.WaitGroup
	var timeouts atomic.Int64
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(bodies); i += workers {
				if i%(4*workers) < workers {
					switch code, raw := serve(h, "/v1/containment", string(hardBody)); code {
					case http.StatusGatewayTimeout:
						timeouts.Add(1)
					case http.StatusOK:
						if !json.Valid(raw) || !bytes.Contains(raw, []byte(`"contained":true`)) {
							t.Errorf("hard self-containment: %s", raw)
						}
					default:
						t.Errorf("hard self-containment: %d %s", code, raw)
					}
				}
				body := string(bodies[i])
				if i%3 == 0 {
					body = `{"explain":true,` + body[1:]
				}
				code, raw := serve(h, "/v1/containment", body)
				if code != http.StatusOK {
					t.Errorf("%s: %d %s", bodies[i], code, raw)
					continue
				}
				var resp containmentResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					t.Errorf("%s: decoding %s: %v", bodies[i], raw, err)
				} else if resp.Contained != want[i] {
					t.Errorf("%s: contained = %v, automata.Contains = %v", bodies[i], resp.Contained, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if timeouts.Load() == 0 {
		t.Error("no hard self-containment timed out, so no run detached")
	}
	waitFor(t, "detached engines to drain", func() bool {
		return scrapeMetrics(t, ts.URL)["rwdserve_detached_engines"] == 0
	})
}
