package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// distinctTriples returns n distinct triples; every third object is
// longer than the inline limit, so its key sorts by dictionary hash.
func distinctTriples(tag string, n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		o := fmt.Sprintf("%s%d", tag, i)
		if i%3 == 0 {
			o = "http://example.org/object/" + o
		}
		out[i] = rdf.Triple{S: fmt.Sprintf("s%d", i%97), P: fmt.Sprintf("p%d", i%7), O: o}
	}
	return out
}

// tracedIngest runs IngestTriples under a fresh trace and returns the
// store.ingest span's counters with the result.
func tracedIngest(ctx context.Context, st *Store, name string, triples []rdf.Triple) (int, map[string]int64, error) {
	tctx, root := (&obs.Tracer{}).StartRoot(ctx, "test")
	n, err := st.IngestTriples(tctx, name, triples)
	root.Finish()
	counters := map[string]int64{}
	root.Tree().Walk(func(node *obs.Node) {
		if node.Name == "store.ingest" {
			for k, v := range node.Counters {
				counters[k] += v
			}
		}
	})
	return n, counters, err
}

// cancelAfter is a context whose Err reports context.Canceled from its
// calls-th call on: IngestTriples checks it once per chunk boundary,
// so it cancels an ingest at a chosen boundary.
type cancelAfter struct {
	context.Context
	calls int
}

func (c *cancelAfter) Err() error {
	if c.calls--; c.calls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestIngestDedupAcrossChunks ingests a 2,500-triple batch with repeats
// inside a chunk, across the chunk boundaries at 1,023 and 2,047,
// against pending writes and against two committed segments: the
// added and skipped counts and the stored corpus must equal a map-based
// reference, and an ingest cancelled at either boundary must keep
// exactly the prefix before it.
func TestIngestDedupAcrossChunks(t *testing.T) {
	ctx := context.Background()
	pool := distinctTriples("o", 3000)
	committed, pending, fresh := pool[:600], pool[600:700], pool[700:]
	r := rand.New(rand.NewSource(24))
	batch := make([]rdf.Triple, 2500)
	for i := range batch {
		switch x := r.Intn(10); {
		case x < 2:
			batch[i] = committed[r.Intn(len(committed))]
		case x < 3:
			batch[i] = pending[r.Intn(len(pending))]
		case x < 4 && i > 0:
			batch[i] = batch[r.Intn(i)]
		default:
			batch[i], fresh = fresh[0], fresh[1:]
		}
	}
	batch[1023] = batch[1022]
	batch[2047] = batch[2046]
	batch[2048] = batch[5]
	batch[2400] = batch[1500]

	setup := func(t *testing.T) *Store {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		for _, part := range [][]rdf.Triple{committed[:300], committed[300:], pending} {
			if _, err := st.IngestTriples(ctx, "g", part); err != nil {
				t.Fatal(err)
			}
			if len(part) == len(pending) {
				break // left in the memtable
			}
			if err := st.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if len(st.segs) != 2 || len(st.mem) != len(pending) {
			t.Fatalf("setup: %d segments, %d pending keys", len(st.segs), len(st.mem))
		}
		return st
	}
	// reference dedups batch[:end] with a map.
	reference := func(end int) (added, skipped int, corpus []rdf.Triple) {
		seen := map[rdf.Triple]bool{}
		for _, tr := range pool[:700] {
			seen[tr] = true
		}
		for _, tr := range batch[:end] {
			if seen[tr] {
				skipped++
				continue
			}
			seen[tr] = true
			added++
		}
		for tr := range seen {
			corpus = append(corpus, tr)
		}
		sortTriples(corpus)
		return added, skipped, corpus
	}
	stored := func(t *testing.T, st *Store) []rdf.Triple {
		sg, err := st.Graph(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		got := sg.Triples()
		if sg.Err() != nil {
			t.Fatal(sg.Err())
		}
		sortTriples(got)
		return got
	}

	t.Run("whole batch", func(t *testing.T) {
		st := setup(t)
		n, counters, err := tracedIngest(ctx, st, "g", batch)
		added, skipped, corpus := reference(len(batch))
		if err != nil || n != added || counters["triples_added"] != int64(added) || counters["dup_skipped"] != int64(skipped) {
			t.Fatalf("added %d (counter %d), skipped %d, err %v; want %d added, %d skipped",
				n, counters["triples_added"], counters["dup_skipped"], err, added, skipped)
		}
		if got := stored(t, st); !reflect.DeepEqual(got, corpus) {
			t.Fatalf("stored corpus has %d triples, reference %d", len(got), len(corpus))
		}
		if n, err := st.IngestTriples(ctx, "g", batch); err != nil || n != 0 {
			t.Fatalf("re-ingest after flush: added %d, err %v; want 0", n, err)
		}
	})
	for _, tc := range []struct{ calls, keep int }{{1, ingestChunk - 1}, {2, 2*ingestChunk - 1}} {
		t.Run(fmt.Sprint("cancelled at ", tc.keep), func(t *testing.T) {
			st := setup(t)
			n, err := st.IngestTriples(&cancelAfter{ctx, tc.calls}, "g", batch)
			added, _, corpus := reference(tc.keep)
			if err != context.Canceled || n != added {
				t.Fatalf("cancelled ingest: added %d, err %v; want %d, context.Canceled", n, err, added)
			}
			if got := stored(t, st); !reflect.DeepEqual(got, corpus) {
				t.Fatalf("stored corpus has %d triples, reference of the first %d has %d", len(got), tc.keep, len(corpus))
			}
		})
	}
}

// TestIngestReadsEachBlockOnce: each chunk of an ingest into a corpus
// of flushed segments reads every segment block at most once. Each
// chunk here probes every committed triple, so it reads each block
// that holds a corpus SPO key exactly once.
func TestIngestReadsEachBlockOnce(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const segs, perSeg = 4, 200
	pool := distinctTriples("o", segs*perSeg+2*ingestChunk)
	committed, fresh := pool[:segs*perSeg], pool[segs*perSeg:]
	for i := 0; i < segs; i++ {
		if _, err := st.IngestTriples(ctx, "g", committed[i*perSeg:(i+1)*perSeg]); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := st.Lookup("g")
	prefix := corpusPrefix(c.ID, idxSPO)
	spoBlocks := 0
	for _, seg := range st.segs {
		for b := range seg.blockOff {
			buf, err := seg.readBlock(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			holds := false
			if err := seg.walkBlock(buf, b, func(key, _ []byte) bool {
				holds = bytes.HasPrefix(key, prefix)
				return !holds
			}); err != nil {
				t.Fatal(err)
			}
			if holds {
				spoBlocks++
			}
		}
	}

	// Two chunks, each every committed triple in a shuffled order
	// followed by fresh ones.
	r := rand.New(rand.NewSource(1))
	var batch []rdf.Triple
	for _, size := range []int{ingestChunk - 1, ingestChunk} {
		chunk := append([]rdf.Triple(nil), committed...)
		r.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		k := size - len(chunk)
		chunk, fresh = append(chunk, fresh[:k]...), fresh[k:]
		batch = append(batch, chunk...)
	}
	n, counters, err := tracedIngest(ctx, st, "g", batch)
	if err != nil || n != len(batch)-2*len(committed) {
		t.Fatalf("added %d, err %v; want %d", n, err, len(batch)-2*len(committed))
	}
	if got, want := counters["blocks_read"], int64(2*spoBlocks); got != want {
		t.Fatalf("two chunks read %d blocks, want each of the %d SPO blocks of %d segments once per chunk",
			got, spoBlocks, segs)
	}
}
