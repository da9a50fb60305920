package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// tracedStats calls RDFStats under a fresh trace and returns the
// store.stats span's memo counters with the answer.
func tracedStats(t *testing.T, st *Store, name string) (stats *rdf.Stats, hits, misses int64) {
	t.Helper()
	ctx, root := (&obs.Tracer{}).StartRoot(context.Background(), "test")
	stats, err := st.RDFStats(ctx, name)
	root.Finish()
	if err != nil {
		t.Fatalf("RDFStats(%q): %v", name, err)
	}
	root.Tree().Walk(func(n *obs.Node) {
		if n.Name == "store.stats" {
			hits += n.Counters["memo_hits"]
			misses += n.Counters["memo_misses"]
		}
	})
	return stats, hits, misses
}

// coldJSON is the JSON of rdf.ComputeStats over an in-memory graph of
// triples: what every RDFStats answer must equal byte for byte.
func coldJSON(triples []rdf.Triple) string {
	b, _ := json.Marshal(rdf.ComputeStats(memGraph(triples)))
	return string(b)
}

// TestRDFStatsMemoGenerations walks the rules of the stats memo: a
// repeated call hits, a duplicate-only ingest and a compaction keep
// the generation, and a fresh ingest and a cancelled partial one move
// it. Every answer equals a cold ComputeStats of what was ingested.
func TestRDFStatsMemoGenerations(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	triples := testTriples(7, 200)
	var ingested []rdf.Triple

	check := func(step string, wantHit bool) {
		t.Helper()
		stats, hits, misses := tracedStats(t, st, "g")
		if wantHit != (hits == 1) || hits+misses != 1 {
			t.Fatalf("%s: memo_hits %d, memo_misses %d, want hit=%v", step, hits, misses, wantHit)
		}
		got, _ := json.Marshal(stats)
		if want := coldJSON(ingested); string(got) != want {
			t.Fatalf("%s: memoized stats differ from cold ones:\n  got:  %s\n  want: %s", step, got, want)
		}
	}
	ingest := func(ts []rdf.Triple) {
		t.Helper()
		if n, err := st.IngestTriples(ctx, "g", ts); err != nil || n != len(ts) {
			t.Fatalf("ingest: added %d of %d, err %v", n, len(ts), err)
		}
		ingested = append(ingested, ts...)
	}

	ingest(triples[:80])
	check("first call", false)
	check("repeated call", true)

	if n, err := st.IngestTriples(ctx, "g", triples[:80]); err != nil || n != 0 {
		t.Fatalf("duplicate-only ingest: added %d, err %v", n, err)
	}
	check("after a duplicate-only ingest", true)

	ingest(triples[80:120])
	check("after a fresh ingest", false)

	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	check("after a compaction", true)

	// A cancelled ingest stops at its first checkpoint, after
	// scanCheckpointEvery-1 triples: pad with a stored triple so that
	// exactly keep fresh ones come before it.
	const keep = 5
	fresh := triples[120:160]
	batch := make([]rdf.Triple, 0, scanCheckpointEvery+len(fresh))
	for len(batch) < scanCheckpointEvery-1-keep {
		batch = append(batch, triples[0])
	}
	batch = append(batch, fresh...)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if n, err := st.IngestTriples(cctx, "g", batch); !errors.Is(err, context.Canceled) || n != keep {
		t.Fatalf("cancelled ingest: added %d, err %v; want %d, context.Canceled", n, err, keep)
	}
	ingested = append(ingested, fresh[:keep]...)
	check("after a cancelled partial ingest", false)
	ingest(fresh[keep:])
	check("after finishing the cancelled ingest", false)
	check("repeated call after the cancelled ingest", true)
}

// TestIngestErrorBumpsGeneration: a segment read error adds nothing
// from its chunk, but the chunks before it stay in the memtable for a
// later flush to commit, so the generation moves exactly when one of
// them added a key.
func TestIngestErrorBumpsGeneration(t *testing.T) {
	ctx := context.Background()
	// Inline terms keep key order, so "a…" sorts below the segment's
	// first key (no read) and "z" between its two keys, "m" and "zz"
	// (a read of the segment).
	below := make([]rdf.Triple, ingestChunk-1)
	for i := range below {
		below[i] = rdf.Triple{S: fmt.Sprintf("a%04d", i), P: "p", O: "o"}
	}
	above := rdf.Triple{S: "z", P: "p", O: "o"}
	for _, tc := range []struct {
		name    string
		batch   []rdf.Triple
		want    int
		wantGen uint64
	}{
		{"error in the second chunk", append(below[:len(below):len(below)], above), ingestChunk - 1, 1},
		{"error in the first chunk", []rdf.Triple{below[0], above}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.IngestTriples(ctx, "g", []rdf.Triple{{S: "m", P: "p", O: "o"}, {S: "zz", P: "p", O: "o"}}); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			c, _ := st.Lookup("g")
			before := st.gen[c.ID]
			st.segs[0].f.Close()
			n, err := st.IngestTriples(ctx, "g", tc.batch)
			if err == nil || n != tc.want {
				t.Fatalf("ingest over a closed segment: added %d, err %v; want %d and an error", n, err, tc.want)
			}
			if after := st.gen[c.ID]; after != before+tc.wantGen {
				t.Fatalf("generation %d → %d across a failed ingest that added %d keys, want +%d", before, after, n, tc.wantGen)
			}
			if len(st.mem) != n {
				t.Fatalf("memtable holds %d keys after adding %d triples, want %d", len(st.mem), n, n)
			}
		})
	}
}

// TestRDFStatsMemoBounded: the memo keeps at most statsMemoCorpora
// corpora, and an evicted corpus is recomputed correctly.
func TestRDFStatsMemoBounded(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	corpora := statsMemoCorpora + 3
	for i := 0; i < corpora; i++ {
		if _, err := st.IngestTriples(ctx, fmt.Sprint("c", i), testTriples(int64(i), 20)); err != nil {
			t.Fatal(err)
		}
		tracedStats(t, st, fmt.Sprint("c", i))
	}
	if n := st.statsMemo.Stats().Len; n != statsMemoCorpora {
		t.Fatalf("memo holds %d corpora, want %d", n, statsMemoCorpora)
	}
	stats, _, misses := tracedStats(t, st, "c0")
	got, _ := json.Marshal(stats)
	if misses != 1 || string(got) != coldJSON(testTriples(0, 20)) {
		t.Fatalf("evicted corpus: misses %d, stats %s", misses, got)
	}
}

// TestRDFStatsMemoConcurrentIngest: writers ingest fresh triples into
// one corpus while readers ask for its stats. Every answer counts at
// least the triples of each ingest that finished before the call and
// at most those of each ingest that started before it returned; once
// the writers stop, the answer equals a cold ComputeStats. Run it
// under -race.
func TestRDFStatsMemoConcurrentIngest(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	const writers, batches, batchSize, readers = 2, 15, 10, 3

	var started, finished atomic.Int64
	var mu sync.Mutex
	var all []rdf.Triple
	add := func(ts []rdf.Triple) {
		started.Add(int64(len(ts)))
		n, err := st.IngestTriples(ctx, "g", ts)
		if err != nil || n != len(ts) {
			t.Errorf("ingest: added %d of %d, err %v", n, len(ts), err)
		}
		mu.Lock()
		all = append(all, ts...)
		mu.Unlock()
		finished.Add(int64(len(ts)))
	}
	add([]rdf.Triple{{S: "seed", P: "p", O: "o"}})

	done := make(chan struct{})
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ts := make([]rdf.Triple, batchSize)
				for i := range ts {
					ts[i] = rdf.Triple{S: fmt.Sprintf("w%d-%d-%d", w, b, i), P: fmt.Sprint("p", i%3), O: fmt.Sprint("o", (b+i)%7)}
				}
				add(ts)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := finished.Load()
				stats, err := st.RDFStats(ctx, "g")
				hi := started.Load()
				if err != nil {
					t.Error(err)
					return
				}
				if n := int64(stats.Triples); n < lo || n > hi {
					t.Errorf("stats count %d triples, outside [%d, %d]", n, lo, hi)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()

	stats, err := st.RDFStats(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	sg, err := st.Graph(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	cold := rdf.ComputeStats(sg)
	if sg.Err() != nil {
		t.Fatal(sg.Err())
	}
	got, _ := json.Marshal(stats)
	want, _ := json.Marshal(cold)
	if string(got) != string(want) || string(got) != coldJSON(all) {
		t.Fatalf("stats after the writers stopped differ from cold ones:\n  memo: %s\n  cold: %s", got, want)
	}
}
