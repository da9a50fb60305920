package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentWriteWhileRendering hammers counters, gauges, and
// histograms from many goroutines — including ones that create new
// label children mid-flight — while WriteText renders concurrently,
// and asserts every rendered snapshot is well-formed Prometheus text.
// Run under -race this also proves the registry's synchronization.
func TestConcurrentWriteWhileRendering(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hammer_total", "h.", "worker", "kind")
	gv := r.GaugeVec("hammer_gauge", "h.", "worker")
	hv := r.HistogramVec("hammer_vec_seconds", "h.", []float64{0.1, 1}, "worker")
	r.GaugeFunc("hammer_func", "h.", func() float64 { return 42 })

	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			id := strconv.Itoa(w)
			c := cv.With(id, "steady")
			g := gv.With(id)
			hw := hv.With(id)
			h := hv.With("shared") // one child every worker hits
			for i := 0; i < iters; i++ {
				c.Inc()
				// a fresh label value every few iterations exercises
				// child creation racing the renderer's family walk
				if i%64 == 0 {
					cv.With(id, "burst"+strconv.Itoa(i)).Add(2)
				}
				g.Set(int64(i))
				h.Observe(float64(i%7) / 10)
				hw.Observe(float64(i%13) / 10)
			}
		}(w)
	}
	renderDone := make(chan []string)
	go func() {
		<-start
		var snaps []string
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Error(err)
				break
			}
			snaps = append(snaps, buf.String())
		}
		renderDone <- snaps
	}()
	close(start)
	wg.Wait()
	snaps := <-renderDone

	for _, s := range snaps {
		checkPrometheusText(t, s)
	}

	// Final snapshot must account every write exactly.
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	final := buf.String()
	checkPrometheusText(t, final)
	steady := 0
	for _, line := range strings.Split(final, "\n") {
		if strings.HasPrefix(line, `hammer_total{worker=`) && strings.Contains(line, `kind="steady"`) {
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("bad line %q: %v", line, err)
			}
			steady += v
		}
	}
	if steady != workers*iters {
		t.Fatalf("steady counter sum = %d, want %d", steady, workers*iters)
	}
	if !strings.Contains(final, "hammer_func 42") {
		t.Fatal("gauge func missing")
	}
}

// checkPrometheusText asserts the structural invariants of the text
// exposition format: every family has HELP+TYPE before its samples,
// every sample line is "name{labels} value" for a declared family, and
// histogram buckets are cumulative and le-sorted.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	declared := map[string]bool{}
	var lastFamily string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "":
			t.Fatal("blank line in exposition")
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(line[len("# HELP "):], " ", 2)[0]
			declared[f] = true
			lastFamily = f
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || parts[0] != lastFamily {
				t.Fatalf("TYPE line %q does not follow HELP for %q", line, lastFamily)
			}
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("sample line %q has no value", line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("sample line %q: bad value: %v", line, err)
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if !strings.HasSuffix(name, "}") {
					t.Fatalf("sample line %q: unterminated label set", line)
				}
				name = name[:i]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !declared[name] && !declared[base] {
				t.Fatalf("sample line %q references undeclared family", line)
			}
		}
	}
}
