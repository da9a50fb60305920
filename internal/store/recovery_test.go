package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// The crash-recovery battery. The durability contract under test:
// everything committed by a successful Flush survives any crash; a
// crash during a later Flush loses at most that flush's writes,
// wholesale; a torn segment is never accepted as committed data.

// withLongTerms appends triples whose terms exceed the inline limit,
// guaranteeing the batch interns fresh dictionary entries.
func withLongTerms(ts []rdf.Triple, tag string) []rdf.Triple {
	for i := 0; i < 10; i++ {
		ts = append(ts, rdf.Triple{
			S: "http://example.org/" + tag + "/subject/" + strings.Repeat("s", i+1),
			P: "http://example.org/" + tag + "/predicate",
			O: "http://example.org/" + tag + "/object/" + strings.Repeat("o", i+1),
		})
	}
	return ts
}

// committedTriples reopens dir and returns corpus "g" sorted.
func committedTriples(t *testing.T, dir string) []rdf.Triple {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after simulated crash: %v", err)
	}
	defer st.Close()
	sg, err := st.Graph(context.Background(), "g")
	if err != nil {
		t.Fatalf("open graph after crash: %v", err)
	}
	got := sg.Triples()
	if sg.Err() != nil {
		t.Fatalf("read after crash: %v", sg.Err())
	}
	sortTriples(got)
	return got
}

// TestCrashMidFlushLosesNothingCommitted injects a failure at every
// write boundary of the second flush and asserts the first flush's
// triples all survive reopen — and that the failed flush's triples are
// still pending, not torn.
func TestCrashMidFlushLosesNothingCommitted(t *testing.T) {
	errBoom := errors.New("injected crash")
	for _, op := range []string{"dict.append", "segment.write", "segment.sync", "segment.rename"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			// Both batches carry long IRIs so every flush has pending
			// dictionary records and the dict.append boundary is reachable.
			batch1 := withLongTerms(testTriples(101, 200), "one")
			batch2 := withLongTerms(testTriples(202, 200), "two")

			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestTriples(ctx, "g", batch1); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			committed := committedTriples(t, dir) // snapshot the commit point

			if _, err := st.IngestTriples(ctx, "g", batch2); err != nil {
				t.Fatal(err)
			}
			testFailpoint = func(fp string) error {
				if fp == op {
					return errBoom
				}
				return nil
			}
			flushErr := st.Flush(ctx)
			testFailpoint = nil
			if !errors.Is(flushErr, errBoom) {
				t.Fatalf("flush did not surface the injected failure: %v", flushErr)
			}
			// Simulate the crash: abandon st without Close, reopen from disk.
			if got := committedTriples(t, dir); !reflect.DeepEqual(got, committed) {
				t.Fatalf("committed triples changed across crash at %s: %d vs %d",
					op, len(got), len(committed))
			}
			// No torn segment may have been committed.
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					continue // debris is fine; reopen removed it already for the check above
				}
				if strings.HasSuffix(e.Name(), ".seg") {
					if _, err := openSegment(filepath.Join(dir, e.Name())); err != nil {
						t.Fatalf("committed segment %s unreadable after crash: %v", e.Name(), err)
					}
				}
			}
		})
	}
}

// TestCrashRetryCommitsEverything: a failed flush followed by a
// successful retry (the process survived) must commit both batches.
func TestCrashRetryCommitsEverything(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	triples := testTriples(303, 300)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestTriples(ctx, "g", triples); err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("injected crash")
	testFailpoint = func(fp string) error {
		if fp == "segment.sync" {
			return errBoom
		}
		return nil
	}
	if err := st.Flush(ctx); !errors.Is(err, errBoom) {
		t.Fatalf("want injected failure, got %v", err)
	}
	testFailpoint = nil
	if err := st.Close(); err != nil { // Close retries the flush
		t.Fatal(err)
	}
	want := memGraph(triples)
	got := committedTriples(t, dir)
	wantT := append([]rdf.Triple(nil), want.Triples()...)
	sortTriples(wantT)
	if !reflect.DeepEqual(got, wantT) {
		t.Fatalf("retry lost triples: %d vs %d", len(got), len(wantT))
	}
}

// TestTruncatedCommittedSegmentRejected: a committed segment that loses
// its tail (torn at the storage layer) must fail the open as corrupt,
// not be silently half-read.
func TestTruncatedCommittedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestTriples(ctx, "g", testTriples(404, 100)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segment written")
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !IsCorrupt(err) {
		t.Fatalf("truncated committed segment: want CorruptError, got %v", err)
	}
}

// TestTornTmpSegmentIgnored: a leftover .tmp file (crash between write
// and rename) is debris, not data — reopen deletes it and loses
// nothing that was committed.
func TestTornTmpSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	triples := testTriples(505, 150)
	if _, err := st.IngestTriples(ctx, "g", triples); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "seg-000099.seg.tmp")
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := memGraph(triples)
	got := committedTriples(t, dir)
	wantT := append([]rdf.Triple(nil), want.Triples()...)
	sortTriples(wantT)
	if !reflect.DeepEqual(got, wantT) {
		t.Fatal("tmp debris changed the committed state")
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp debris not removed at open: %v", err)
	}
}

// TestTornDictTailTolerated: a crash mid-append to terms.dat leaves a
// torn final record; reopen truncates it and keeps every committed
// segment readable (dict entries are synced before any segment that
// references them, so the torn tail can only name unreferenced terms).
func TestTornDictTailTolerated(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	triples := testTriples(606, 200)
	if _, err := st.IngestTriples(ctx, "g", triples); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half of a record.
	f, err := os.OpenFile(filepath.Join(dir, "terms.dat"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{dictMarker, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want := memGraph(triples)
	got := committedTriples(t, dir)
	wantT := append([]rdf.Triple(nil), want.Triples()...)
	sortTriples(wantT)
	if !reflect.DeepEqual(got, wantT) {
		t.Fatal("torn dict tail lost committed triples")
	}
}

// TestMidLogDictDamageRejected: damage in the middle of terms.dat —
// records still parse after the bad offset — is corruption, not a torn
// tail, and must fail the open.
func TestMidLogDictDamageRejected(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Long terms so the dictionary has many records.
	var triples []rdf.Triple
	for i := 0; i < 50; i++ {
		triples = append(triples, rdf.Triple{
			S: "http://example.org/subject/" + strings.Repeat("s", i+1),
			P: "http://example.org/predicate/p",
			O: "http://example.org/object/" + strings.Repeat("o", i+1),
		})
	}
	if _, err := st.IngestTriples(ctx, "g", triples); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "terms.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 100 {
		t.Fatalf("dictionary unexpectedly small: %d bytes", len(data))
	}
	data[20] ^= 0xFF // damage an early record; later records still parse
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !IsCorrupt(err) {
		t.Fatalf("mid-log dictionary damage: want CorruptError, got %v", err)
	}
}

// TestDictTermWithTwoHandlesRejected: a dictionary log naming one term
// under two handles, each record with a valid CRC, fails the open —
// keys holding the two handles would otherwise count one term as two.
func TestDictTermWithTwoHandlesRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "terms.dat")
	d, err := openDict(path)
	if err != nil {
		t.Fatal(err)
	}
	term := "http://example.org/a-term-with-two-handles"
	d.byHandle[1], d.byHandle[2] = term, term
	d.pending = []uint64{1, 2}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openDict(path); !IsCorrupt(err) {
		t.Fatalf("term under two handles: want CorruptError, got %v", err)
	}
}
