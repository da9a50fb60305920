package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestAnalyzeQueriesCtxTracedIdentical pins that tracing is purely
// observational: the traced report at workers 1, 2 and 3 equals the
// untraced sequential one, and the span tree carries the per-shard and
// merge accounting. Every copy of a raw string meets its first
// occurrence in one shard, so the memo hits always sum to the stream
// length minus its distinct raw strings.
func TestAnalyzeQueriesCtxTracedIdentical(t *testing.T) {
	queries := []string{
		"SELECT ?x WHERE { ?x <p> ?y }",
		"SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z }",
		"SELECT * WHERE { ?a <p> ?b }",
		"SELECT ?x WHERE { ?x <p> ?y }",
		"not a query",
		"SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z }",
		"not a query",
		"SELECT ?x WHERE { ?x <p> ?y }",
		"SELECT  ?x  WHERE { ?x <p> ?y }", // same canonical form, new raw string
		"not a query",
		"SELECT * WHERE { ?a <p> ?b }",
	}
	distinct := map[string]bool{}
	for _, q := range queries {
		distinct[q] = true
	}
	wantHits := int64(len(queries) - len(distinct))
	want := AnalyzeQueries("t", queries, 1)

	for _, workers := range []int{1, 2, 3} {
		tr := &obs.Tracer{}
		ctx, root := tr.StartRoot(context.Background(), "test")
		got := AnalyzeQueriesCtx(ctx, "t", queries, workers)
		root.Finish()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: traced report differs from sequential:\ngot  %+v\nwant %+v", workers, got, want)
		}

		tree := root.Tree()
		var shards, merges int
		var ingested, hits int64
		for _, c := range tree.Children {
			switch c.Name {
			case "core.shard":
				shards++
				ingested += c.Counters["queries_ingested"]
				hits += c.Counters["memo_hits"]
			case "core.merge":
				merges++
				if c.Counters["shards"] != int64(workers) {
					t.Fatalf("workers=%d: merge shards counter = %d", workers, c.Counters["shards"])
				}
			}
		}
		wantMerges := 1
		if workers == 1 {
			wantMerges = 0
		}
		if shards != workers || merges != wantMerges {
			t.Fatalf("workers=%d: span tree has %d shard and %d merge spans, want %d and %d: %+v",
				workers, shards, merges, workers, wantMerges, tree.Children)
		}
		if ingested != int64(len(queries)) {
			t.Fatalf("workers=%d: queries_ingested sums to %d, want %d", workers, ingested, len(queries))
		}
		if hits != wantHits {
			t.Fatalf("workers=%d: memo_hits sums to %d, want %d raw repeats", workers, hits, wantHits)
		}
	}
}

// TestRunLogStudyParallelCtxSpans drives a tiny traced two-worker study
// and checks each source span carries generate/shard/merge children.
func TestRunLogStudyParallelCtxSpans(t *testing.T) {
	cfg := Config{Workers: 2, ScaleDiv: 2_000_000}
	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "study")
	reports := RunLogStudy(ctx, cfg)
	root.Finish()
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	tree := root.Tree()
	if len(tree.Children) != len(reports) {
		t.Fatalf("got %d source spans, want %d", len(tree.Children), len(reports))
	}
	for _, src := range tree.Children {
		if src.Name != "core.source" {
			t.Fatalf("unexpected child %q", src.Name)
		}
		kinds := map[string]int{}
		for _, c := range src.Children {
			kinds[c.Name]++
		}
		if kinds["core.generate"] != 1 || kinds["core.merge"] != 1 || kinds["core.shard"] != 2 {
			t.Fatalf("source %s children = %v, want 1 generate, 2 shards, 1 merge", src.Attrs["source"], kinds)
		}
	}
}
