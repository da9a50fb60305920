package core

import (
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/loggen"
)

// hugeScale keeps every source at the 50-query floor so the tests below
// run whole studies in milliseconds.
const hugeScale = 1 << 30

func TestConfigNormalizedDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Config
	}{
		{"zero", Config{}},
		{"negative", Config{Workers: -3, ScaleDiv: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.normalized()
			if want := runtime.GOMAXPROCS(0); got.Workers != want {
				t.Errorf("Workers = %d, want %d", got.Workers, want)
			}
			if got.ScaleDiv != 10000 {
				t.Errorf("ScaleDiv = %d, want 10000", got.ScaleDiv)
			}
		})
	}
}

func TestConfigNormalizedKeepsExplicitValues(t *testing.T) {
	in := Config{Workers: 3, ScaleDiv: 500, Seed: 42}
	got := in.normalized()
	if got != in {
		t.Fatalf("normalized() = %+v, want unchanged %+v", got, in)
	}
}

func TestSourceSeedIndependentOfWorkers(t *testing.T) {
	base := Config{Seed: 100}
	for i := 0; i < 5; i++ {
		want := int64(100 + i*seedStride)
		if got := base.SourceSeed(i); got != want {
			t.Errorf("SourceSeed(%d) = %d, want %d", i, got, want)
		}
		many := Config{Seed: 100, Workers: 8}
		if base.SourceSeed(i) != many.SourceSeed(i) {
			t.Errorf("SourceSeed(%d) depends on worker count", i)
		}
	}
}

func TestSourceStreamDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, ScaleDiv: hugeScale}
	a := cfg.SourceStream(0)
	b := cfg.SourceStream(0)
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// a different seed must change the stream
	other := Config{Seed: 8, ScaleDiv: hugeScale}.SourceStream(0)
	same := len(other) == len(a)
	if same {
		for i := range a {
			if a[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("streams identical across different seeds")
	}
}

// TestSourceStreamMatchesSequentialIngest checks RunLogStudy's
// sequential reference against a lazy ingest that pulls each source's
// generator query by query into one analyzer: materializing the stream
// and generating it ahead must not change any report.
func TestSourceStreamMatchesSequentialIngest(t *testing.T) {
	cfg := Config{Seed: 3, ScaleDiv: hugeScale, Workers: 1}
	reports := RunLogStudy(context.Background(), cfg)
	srcs := loggen.Sources()
	if len(reports) != len(srcs) {
		t.Fatalf("got %d reports, want %d", len(reports), len(srcs))
	}
	for i, s := range srcs {
		g := loggen.NewGen(s, cfg.SourceSeed(i))
		a := NewAnalyzer(s.Name)
		a.Report.Wikidata, a.Report.Robotic = s.Wikidata, s.Robotic
		for n := g.Count(cfg.ScaleDiv); n > 0; n-- {
			a.Ingest(g.Next())
		}
		if !reflect.DeepEqual(reports[i], a.Report) {
			t.Errorf("source %s: RunLogStudy report differs from a lazy sequential ingest:\ngot  %+v\nwant %+v",
				s.Name, reports[i], a.Report)
		}
	}
}

// failAfterWriter fails every write after the first n bytes, exercising
// errors both in section headers and in table renderers.
type failAfterWriter struct {
	n       int
	wrote   int
	failErr error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.wrote >= w.n {
		return 0, w.failErr
	}
	w.wrote += len(p)
	return len(p), nil
}

func TestRenderAllPropagatesWriteError(t *testing.T) {
	reports := RunLogStudy(context.Background(), Config{ScaleDiv: hugeScale, Workers: 1})
	sentinel := errors.New("disk full")
	for _, budget := range []int{0, 1, 100, 4096} {
		w := &failAfterWriter{n: budget, failErr: sentinel}
		if err := RenderAll(w, reports); !errors.Is(err, sentinel) {
			t.Errorf("budget %d: RenderAll err = %v, want %v", budget, err, sentinel)
		}
	}
	if err := RenderAll(io.Discard, reports); err != nil {
		t.Errorf("RenderAll(io.Discard) = %v, want nil", err)
	}
}
