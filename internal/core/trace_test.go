package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestAnalyzeQueriesCtxTracedIdentical pins that tracing is purely
// observational: the traced sharded report equals the untraced sequential
// one, and the span tree carries the per-shard and merge accounting,
// memo hits included.
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
	// a raw string seen before in its own shard is a memo hit
	var wantHits int64
	for _, part := range ShardSplit(queries, 3) {
		inShard := map[string]bool{}
		for _, q := range part {
			if inShard[q] {
				wantHits++
			}
			inShard[q] = true
		}
	}
	if wantHits < 2 {
		t.Fatalf("stream has %d same-shard repeats; the test needs at least 2", wantHits)
	}
	want := AnalyzeQueries("t", queries, 1)

	tr := &obs.Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "test")
	got := AnalyzeQueriesCtx(ctx, "t", queries, 3)
	root.Finish()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced sharded report differs from sequential:\ngot  %+v\nwant %+v", got, want)
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
			if c.Counters["shards"] != 3 {
				t.Fatalf("merge shards counter = %d, want 3", c.Counters["shards"])
			}
		}
	}
	if shards != 3 || merges != 1 {
		t.Fatalf("span tree has %d shard and %d merge spans, want 3 and 1: %+v", shards, merges, tree.Children)
	}
	if ingested != int64(len(queries)) {
		t.Fatalf("queries_ingested sums to %d, want %d", ingested, len(queries))
	}
	if hits != wantHits {
		t.Fatalf("memo_hits sums to %d, want %d same-shard repeats", hits, wantHits)
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
