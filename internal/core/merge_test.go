package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// respell returns q with one more space after its first one: the same
// canonical form under another raw string, which the split may send to
// another shard than q.
func respell(q string) string { return strings.Replace(q, " ", "  ", 1) }

// TestMergeShardsEqualsSequential is the shard/merge property test: for
// k ∈ {1, 2, 7, 16}, analyzing a k-split of a source's stream in
// independent analyzers and merging with MergeShards must reproduce the
// sequential SourceReport exactly. Raw repeats never leave their shard,
// so the stream also gets respellings of earlier queries at random later
// positions: they are what reaches the U-side correction, and at k > 1
// at least one canonical form must be first seen in more than one shard.
func TestMergeShardsEqualsSequential(t *testing.T) {
	cfg := Config{Seed: 11, ScaleDiv: 200000}
	r := rand.New(rand.NewSource(11))
	// index 0 is DBpedia9-12 (operator-set heavy), 13 is WikiRobot/OK
	// (duplicate-heavy, property-path heavy), 16 is WikiOrganic/TO (tiny,
	// forces empty shards at k = 16).
	for _, idx := range []int{0, 13, 16} {
		stream := cfg.SourceStream(idx)
		for i, n := 0, len(stream)/4+1; i < n; i++ {
			j := r.Intn(len(stream))
			stream = slices.Insert(stream, j+1+r.Intn(len(stream)-j), respell(stream[j]))
		}
		seq := AnalyzeQueries("shardtest", stream, 1)
		for _, k := range []int{1, 2, 7, 16} {
			parts := ShardSplit(stream, k)
			shards := make([]*Analyzer, len(parts))
			shardsSeen := map[string]int{}
			crossing := 0
			for i, part := range parts {
				a := NewAnalyzer("shardtest")
				for _, q := range part {
					a.Ingest(q)
				}
				shards[i] = a
				for canon := range a.seen {
					if shardsSeen[canon]++; shardsSeen[canon] == 2 {
						crossing++
					}
				}
			}
			if k > 1 && crossing == 0 {
				t.Errorf("source %d, k=%d: no canonical form is first seen in more than one shard", idx, k)
			}
			got := MergeShards("shardtest", shards)
			if !reflect.DeepEqual(got, seq) {
				t.Errorf("source %d, k=%d: merged report differs from sequential\nmerged: T=%d V=%d U=%d\nseq:    T=%d V=%d U=%d",
					idx, k, got.Total, got.Valid, got.Unique, seq.Total, seq.Valid, seq.Unique)
			}
		}
	}
}

// TestMergeShardsDeduplicatesAcrossShards pins the dedup-at-merge rule on
// a hand-built corpus that spells one canonical form two ways; at k = 3
// the two spellings land in different shards, so the form is first seen
// in both.
func TestMergeShardsDeduplicatesAcrossShards(t *testing.T) {
	const dup = "SELECT ?s WHERE { ?s ?p ?o }"
	corpus := []string{
		dup,
		"SELECT ?x WHERE { ?x :a ?y . ?y :b ?z }",
		dup,
		"SELECT  ?s  WHERE  {  ?s ?p ?o . }", // whitespace variant of dup
		"broken { query",
		dup,
	}
	seq := AnalyzeQueries("dedup", corpus, 1)
	for _, k := range []int{2, 3} {
		got := AnalyzeQueries("dedup", corpus, k)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("k=%d: %+v != sequential %+v", k, got, seq)
		}
	}
	if seq.Total != 6 || seq.Valid != 5 || seq.Unique != 2 {
		t.Fatalf("sequential baseline off: T=%d V=%d U=%d", seq.Total, seq.Valid, seq.Unique)
	}
}

// TestGroupMergeStaysAdditive guards the group-level Merge semantics: for
// distinct sources the U side is additive, not deduplicated.
func TestGroupMergeStaysAdditive(t *testing.T) {
	a := NewAnalyzer("s1")
	b := NewAnalyzer("s2")
	q := "SELECT ?s WHERE { ?s ?p ?o }"
	a.Ingest(q)
	b.Ingest(q)
	m := Merge("group", []*SourceReport{a.Report, b.Report})
	if m.Total != 2 || m.Valid != 2 || m.Unique != 2 {
		t.Errorf("group merge: T=%d V=%d U=%d, want 2/2/2", m.Total, m.Valid, m.Unique)
	}
}

// TestShardSplitByRawString pins the split contract: every copy of a raw
// string lands in one shard, each shard keeps stream order, a fixed list
// always splits the same way (the hash has no per-process seed), and n
// shards come back even when the stream is shorter than n.
func TestShardSplitByRawString(t *testing.T) {
	stream := Config{Seed: 3, ScaleDiv: 200000}.SourceStream(13)
	for _, n := range []int{2, 3, 7} {
		parts := ShardSplit(stream, n)
		if len(parts) != n {
			t.Fatalf("n=%d: %d shards", n, len(parts))
		}
		shardOf := map[string]int{}
		total := 0
		for k, part := range parts {
			total += len(part)
			i := 0 // part must be a subsequence of stream
			for _, q := range part {
				if s, ok := shardOf[q]; ok && s != k {
					t.Fatalf("n=%d: %q in shards %d and %d", n, q, s, k)
				}
				shardOf[q] = k
				for i < len(stream) && stream[i] != q {
					i++
				}
				if i == len(stream) {
					t.Fatalf("n=%d: shard %d is out of stream order at %q", n, k, q)
				}
				i++
			}
		}
		if total != len(stream) {
			t.Fatalf("n=%d: shards hold %d queries, stream has %d", n, total, len(stream))
		}
	}

	fixed := []string{"a", "b", "c", "d", "e", "a", "SELECT ?s WHERE { ?s ?p ?o }"}
	for n, want := range map[int][][]string{
		2: {{"b", "c", "d", "SELECT ?s WHERE { ?s ?p ?o }"}, {"a", "e", "a"}},
		3: {nil, {"b", "c", "SELECT ?s WHERE { ?s ?p ?o }"}, {"a", "d", "e", "a"}},
	} {
		if got := ShardSplit(fixed, n); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: split %q, want %q", n, got, want)
		}
	}

	parts := ShardSplit([]string{"a"}, 4)
	if len(parts) != 4 || len(parts[0])+len(parts[1])+len(parts[2])+len(parts[3]) != 1 {
		t.Errorf("oversplit wrong: %q", parts)
	}
}
