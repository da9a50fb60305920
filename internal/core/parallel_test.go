package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/sparql"
)

// TestRunLogStudyParallelMatchesSequential is the acceptance property of
// the sharded pipeline: for the same Config, RenderAll over the reports at
// Workers 2, 3 and 4 is byte-identical to the sequential reference at
// Workers 1.
func TestRunLogStudyParallelMatchesSequential(t *testing.T) {
	cfg := Config{Seed: 1, ScaleDiv: 500000, Workers: 1}
	var want bytes.Buffer
	if err := RenderAll(&want, RunLogStudy(context.Background(), cfg)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		cfg.Workers = workers
		var got bytes.Buffer
		if err := RenderAll(&got, RunLogStudy(context.Background(), cfg)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: sharded RenderAll output differs from sequential", workers)
		}
	}
}

// TestRunLogStudyParallelConcurrent drives sharded studies from several
// goroutines at once; under `go test -race` this doubles as the data-race
// check for the shard workers and the merge.
func TestRunLogStudyParallelConcurrent(t *testing.T) {
	cfg := Config{Seed: 5, ScaleDiv: 2000000, Workers: 4}
	var wg sync.WaitGroup
	results := make([][]*SourceReport, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = RunLogStudy(context.Background(), cfg)
		}(i)
	}
	wg.Wait()
	var first bytes.Buffer
	if err := RenderAll(&first, results[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		var b bytes.Buffer
		if err := RenderAll(&b, results[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), first.Bytes()) {
			t.Errorf("run %d: concurrent runs disagree", i)
		}
	}
}

// TestConfigSourceSeedReproducible pins the seeding contract: the stride
// is 7919, as it always was, and a single source's shard can be
// regenerated in isolation.
func TestConfigSourceSeedReproducible(t *testing.T) {
	cfg := Config{Seed: 42, ScaleDiv: 2000000}
	if got, want := cfg.SourceSeed(3), int64(42+3*7919); got != want {
		t.Errorf("SourceSeed(3) = %d, want %d (historical stride)", got, want)
	}
	// shard 2 of 5 of source 13 regenerates identically
	stream := cfg.SourceStream(13)
	shard := ShardSplit(stream, 5)[2]
	again := ShardSplit(cfg.SourceStream(13), 5)[2]
	if len(shard) == 0 || len(shard) != len(again) {
		t.Fatalf("shard lengths: %d vs %d", len(shard), len(again))
	}
	for i := range shard {
		if shard[i] != again[i] {
			t.Fatalf("shard query %d differs", i)
		}
	}
}

// failWriter fails after n bytes, exercising the render error path.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errShort
	}
	f.left -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write target" }

// TestRenderAllPropagatesWriteErrors: a failing writer must surface the
// error instead of being silently discarded.
func TestRenderAllPropagatesWriteErrors(t *testing.T) {
	a := NewAnalyzer("x")
	a.Ingest("SELECT ?s WHERE { ?s ?p ?o }")
	reports := []*SourceReport{a.Report}
	if err := RenderAll(&bytes.Buffer{}, reports); err != nil {
		t.Fatalf("buffer render failed: %v", err)
	}
	for _, budget := range []int{0, 7, 300} {
		if err := RenderAll(&failWriter{left: budget}, reports); err == nil {
			t.Errorf("budget=%d: write error swallowed", budget)
		}
	}
	if err := RenderTable2(&failWriter{}, reports); err == nil {
		t.Error("RenderTable2 swallowed the write error")
	}
	if err := RenderSection94(&failWriter{}, a.Report); err == nil {
		t.Error("RenderSection94 swallowed the write error")
	}
}

// TestPPCacheConsistent checks the memoized property-path classification
// against the uncached classifiers on real generated paths.
func TestPPCacheConsistent(t *testing.T) {
	a := NewAnalyzer("cache")
	for _, raw := range []string{
		"SELECT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q839954 }",
		"SELECT ?s WHERE { ?s wdt:P279* ?o }",
		"SELECT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q5 }", // same path shape again
	} {
		q, err := sparql.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range q.PropertyPaths() {
			got := a.classifyPP(pp)
			cached := a.classifyPP(pp)
			if got != cached {
				t.Errorf("cache changed the answer for %s", pp)
			}
			if got.row == "" {
				t.Errorf("empty Table 8 row for %s", pp)
			}
		}
	}
	if len(a.ppCache) == 0 {
		t.Error("cache never populated")
	}
}
