package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func testTriples(seed int64, n int) []rdf.Triple {
	g := rdf.DefaultGen().Graph(rand.New(rand.NewSource(seed)), n)
	return append([]rdf.Triple(nil), g.Triples()...)
}

func memGraph(triples []rdf.Triple) *rdf.Graph {
	g := rdf.NewGraph()
	for _, t := range triples {
		g.Add(t.S, t.P, t.O)
	}
	return g
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].S != ts[j].S {
			return ts[i].S < ts[j].S
		}
		if ts[i].P != ts[j].P {
			return ts[i].P < ts[j].P
		}
		return ts[i].O < ts[j].O
	})
}

// --- codec ---

func TestTermCodecRoundTrip(t *testing.T) {
	d, _ := openDict("")
	terms := []string{
		"", "a", "ab\x00cd", "12345678", "exactly-8"[:8],
		"a-term-well-beyond-the-inline-limit",
		"http://example.org/resource/with/a/long/iri",
		strings.Repeat("x", 1000),
		"ünïcödé-términology",
	}
	for _, term := range terms {
		enc := appendTerm(nil, term, d)
		if len(enc) != encodedTermSize {
			t.Fatalf("encoded %q to %d bytes, want %d", term, len(enc), encodedTermSize)
		}
		got, err := decodeTerm(enc, d)
		if err != nil {
			t.Fatalf("decode %q: %v", term, err)
		}
		if got != term {
			t.Fatalf("round trip %q -> %q", term, got)
		}
	}
}

func TestInlineEncodingPreservesOrder(t *testing.T) {
	d, _ := openDict("")
	terms := []string{"", "a", "aa", "a\x00", "a\x00b", "ab", "b", "zzzzzzzz", "\x00", "\x00\x00"}
	for _, x := range terms {
		for _, y := range terms {
			ex := appendTerm(nil, x, d)
			ey := appendTerm(nil, y, d)
			if sign(bytes.Compare(ex, ey)) != sign(strings.Compare(x, y)) {
				t.Fatalf("order broken: %q vs %q → enc cmp %d, str cmp %d",
					x, y, bytes.Compare(ex, ey), strings.Compare(x, y))
			}
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

func TestDecodeTermRejectsCorrupt(t *testing.T) {
	d, _ := openDict("")
	cases := [][]byte{
		nil,
		{kindInline},
		{0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		{kindInline, 'a', 0, 0, 0, 0, 0, 0, 0, 9},   // length out of range
		{kindInline, 'a', 'b', 0, 0, 0, 0, 0, 0, 1}, // nonzero padding
		{kindHash, 1, 2, 3, 4, 5, 6, 7, 8, 0},       // unknown handle
		{kindHash, 0, 0, 0, 0, 0, 0, 0, 0, 7},       // nonzero length byte
	}
	for i, b := range cases {
		if _, err := decodeTerm(b, d); err == nil {
			t.Fatalf("case %d: corrupt bytes %v decoded without error", i, b)
		}
	}
}

func TestDictCollisionsPreserveEquality(t *testing.T) {
	d, _ := openDict("")
	// Force the maps into a collision by pre-seeding byHandle at another
	// term's base hash.
	a := strings.Repeat("a", 20)
	b := strings.Repeat("b", 20)
	d.byHandle[fnvHash(b)] = a
	d.byTerm[a] = fnvHash(b)
	hb := d.intern(b)
	if got, _ := d.lookup(hb); got != b {
		t.Fatalf("collision broke equality: handle of %q resolves to %q", b, got)
	}
	if hb == fnvHash(b) {
		t.Fatalf("collision not detected: %q kept its base hash", b)
	}
	if d.intern(b) != hb {
		t.Fatalf("re-intern changed the handle")
	}
}

// --- segments ---

func TestSegmentRoundTripAndScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.seg")
	var recs []record
	for i := 0; i < 500; i++ {
		recs = append(recs, record{
			key: []byte(fmt.Sprintf("key-%04d", i)),
			val: []byte(fmt.Sprintf("val-%d", i)),
		})
	}
	sortRecords(recs)
	if err := writeSegment(path, recs); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()

	if v, ok, err := seg.get([]byte("key-0123"), nil); err != nil || !ok || string(v) != "val-123" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, err := seg.get([]byte("key-9999"), nil); err != nil || ok {
		t.Fatalf("get of absent key: ok=%v err=%v", ok, err)
	}
	var got []string
	err = seg.scanPrefix([]byte("key-01"), nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil || len(got) != 100 {
		t.Fatalf("prefix scan: %d records, err %v", len(got), err)
	}
	if n, err := seg.rangeSize([]byte("key-01"), nil); err != nil || n != 100 {
		t.Fatalf("rangeSize: %d %v", n, err)
	}
}

func TestSegmentDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.seg")
	recs := []record{{key: []byte("hello"), val: []byte("world")}}
	if err := writeSegment(path, recs); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)

	for name, mutate := range map[string]func([]byte) []byte{
		"flipped data byte": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[segHeaderSize] ^= 0xFF
			return c
		},
		"flipped header byte": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[10] ^= 0xFF
			return c
		},
		"truncated tail":   func(b []byte) []byte { return b[:len(b)-3] },
		"truncated header": func(b []byte) []byte { return b[:segHeaderSize-4] },
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
	} {
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSegment(path); !IsCorrupt(err) {
			t.Fatalf("%s: want CorruptError, got %v", name, err)
		}
	}
}

// --- store ---

func TestStoreIngestFlushReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	triples := testTriples(7, 300)

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.IngestTriples(ctx, "g", triples)
	if err != nil {
		t.Fatal(err)
	}
	want := memGraph(triples)
	if n != want.Len() {
		t.Fatalf("ingested %d, want %d (post-dedup)", n, want.Len())
	}
	// One pending key per new triple: its SPO key.
	if stats, err := st.StoreStats(); err != nil || stats.PendingKeys != n {
		t.Fatalf("after an unflushed ingest of %d triples: %d pending keys (err %v), want %d", n, stats.PendingKeys, err, n)
	}
	// Dedup within the memtable and across a flush boundary.
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := st.IngestTriples(ctx, "g", triples); err != nil || n != 0 {
		t.Fatalf("re-ingest accepted %d triples, err %v", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sg, err := st.Graph(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	got := sg.Triples()
	wantT := append([]rdf.Triple(nil), want.Triples()...)
	sortTriples(got)
	sortTriples(wantT)
	if !reflect.DeepEqual(got, wantT) {
		t.Fatalf("triples diverge after reopen: %d vs %d", len(got), len(wantT))
	}
	if sg.Err() != nil {
		t.Fatalf("stored graph error: %v", sg.Err())
	}
}

// TestOpenReadsThreeIndexStore: a store whose segments also hold each
// triple under the POS (tag 0x11) and OSP (tag 0x12) orders, as stores
// written before triples were keyed by SPO alone do, opens and answers
// exactly as one holding SPO keys only. The extra keys are never read.
func TestOpenReadsThreeIndexStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	corpora := map[string][]rdf.Triple{
		"g": withLongTerms(testTriples(23, 300), "g"),
		"h": withLongTerms(testTriples(29, 120), "h"),
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, name := range []string{"g", "h"} {
			ts := corpora[name]
			part := ts[i*len(ts)/3 : (i+1)*len(ts)/3]
			if _, err := st.IngestTriples(ctx, name, part); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Add the POS and OSP keys of every SPO key to its segment.
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(paths) != 3 {
		t.Fatalf("want three segments, found %d", len(paths))
	}
	for _, path := range paths {
		recs := readRecords(t, path)
		for _, r := range recs {
			if r.key[keyBase-1] != idxSPO {
				continue
			}
			term := func(i int) []byte { return r.key[keyBase+i*encodedTermSize : keyBase+(i+1)*encodedTermSize] }
			for _, k := range []struct {
				tag   byte
				order [3]int
			}{{0x11, [3]int{1, 2, 0}}, {0x12, [3]int{2, 0, 1}}} {
				extra := append(bytes.Clone(r.key[:keyBase-1]), k.tag)
				for _, i := range k.order {
					extra = append(extra, term(i)...)
				}
				recs = append(recs, record{key: extra})
			}
		}
		sortRecords(recs)
		if err := writeSegment(path, recs); err != nil {
			t.Fatal(err)
		}
	}

	st, err = Open(dir)
	if err != nil {
		t.Fatalf("open a three-index store: %v", err)
	}
	defer st.Close()
	check := func(when string) {
		t.Helper()
		total := 0
		for name, ts := range corpora {
			want := memGraph(ts)
			total += want.Len()
			got, err := st.RDFStats(ctx, name)
			if err != nil {
				t.Fatalf("%s: RDFStats(%q): %v", when, name, err)
			}
			if !reflect.DeepEqual(got, rdf.ComputeStats(want)) {
				t.Fatalf("%s: RDFStats(%q) diverges from the in-memory stats", when, name)
			}
		}
		stats, err := st.StoreStats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Triples != total {
			t.Fatalf("%s: StoreStats counts %d triples, want %d", when, stats.Triples, total)
		}
	}
	check("after open")
	if err := st.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := st.Compact(ctx); err != nil {
		t.Fatalf("compact: %v", err)
	}
	check("after compaction")
	for name, ts := range corpora {
		if n, err := st.IngestTriples(ctx, name, ts); err != nil || n != 0 {
			t.Fatalf("re-ingest of %q added %d, err %v; want 0", name, n, err)
		}
	}
	if err := st.Verify(ctx); err != nil {
		t.Fatalf("verify after compaction: %v", err)
	}
}

// TestVerifyCatchesBrokenInvariants damages a healthy store in ways
// the segment CRCs cannot see, each breaking one invariant that reads
// and ingest rely on, and expects Verify to report a *CorruptError.
func TestVerifyCatchesBrokenInvariants(t *testing.T) {
	ctx := context.Background()
	for name, damage := range map[string]func(t *testing.T, dir string){
		// The same SPO keys in two segments: StoreStats and TermIDs
		// would count every triple twice.
		"segment copied": func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, "seg-000000.seg"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "seg-000001.seg"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Records out of key order: probes and range scans would miss keys.
		"keys out of order": func(t *testing.T, dir string) {
			path := filepath.Join(dir, "seg-000000.seg")
			recs := readRecords(t, path)
			recs[0], recs[len(recs)-1] = recs[len(recs)-1], recs[0]
			if err := writeSegment(path, recs); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestTriples(ctx, "g", testTriples(31, 60)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			damage(t, dir)
			st, err = Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Close()
			if err := st.Verify(ctx); !IsCorrupt(err) {
				t.Fatalf("verify: want a CorruptError, got %v", err)
			}
		})
	}
}

// TestComputeStatsBackendAgnostic checks the stats a StoredGraph
// computes from its encoded keys against the in-memory graph's, for a
// corpus spread over 1, 2 and 20 segments, each flush also committing
// part of another corpus whose keys sort before and after it.
func TestComputeStatsBackendAgnostic(t *testing.T) {
	ctx := context.Background()
	triples := withLongTerms(testTriples(13, 500), "stats")
	triples = append(triples,
		rdf.Triple{S: "a\x00", P: "p\x00", O: "\x00"},
		rdf.Triple{S: "rdf:type", P: "foaf:name", O: "rdf:type"}, // a predicate as subject and object
		rdf.Triple{S: "ent0", P: "foaf:knows", O: "\x00\x00"})
	want := rdf.ComputeStats(memGraph(triples))
	wantJSON, _ := json.Marshal(want)
	for _, segments := range []int{1, 2, 20} {
		t.Run(fmt.Sprint(segments), func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.CreateCorpus("before", KindTriples); err != nil {
				t.Fatal(err)
			}
			other := testTriples(99, 3*segments)
			chunk := (len(triples) + segments - 1) / segments
			for i := 0; i < segments; i++ {
				if _, err := st.IngestTriples(ctx, "g", triples[i*chunk:min((i+1)*chunk, len(triples))]); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"before", "after"} {
					if _, err := st.IngestTriples(ctx, name, other[3*i:3*i+3]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if stats, _ := st.StoreStats(); stats.Segments != segments {
				t.Fatalf("store holds %d segments, want %d", stats.Segments, segments)
			}
			sg, err := st.Graph(ctx, "g")
			if err != nil {
				t.Fatal(err)
			}
			got := rdf.ComputeStats(sg)
			if sg.Err() != nil {
				t.Fatal(sg.Err())
			}
			gotJSON, _ := json.Marshal(got)
			if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("ComputeStats diverges across backends:\nmem:   %s\nstore: %s", wantJSON, gotJSON)
			}
		})
	}
}

var benchStats *rdf.Stats

// commitBenchCorpus commits triples to corpus "base" as flushed
// segments of 1,000 triples and returns how many were added. With
// benchTriples that is 20 segments, the shape of the rwdperf
// corpus-bulk "base" corpus.
func commitBenchCorpus(b *testing.B, st *Store, triples []rdf.Triple) int {
	ctx := context.Background()
	added := 0
	for i := 0; i < len(triples); i += 1000 {
		n, err := st.IngestTriples(ctx, "base", triples[i:i+1000])
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		added += n
	}
	return added
}

func benchTriples() []rdf.Triple { return testTriples(1, 9000)[:20000] }

// openBenchCorpus opens a store in a fresh directory holding the
// committed benchmark corpus.
func openBenchCorpus(b *testing.B) (st *Store, dir string, added int) {
	dir = b.TempDir()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	return st, dir, commitBenchCorpus(b, st, benchTriples())
}

// BenchmarkComputeStats is the stored stats layer: a StoredGraph over
// the committed benchmark corpus.
func BenchmarkComputeStats(b *testing.B) {
	ctx := context.Background()
	st, _, _ := openBenchCorpus(b)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := st.Graph(ctx, "base")
		if err != nil {
			b.Fatal(err)
		}
		if benchStats = rdf.ComputeStats(sg); sg.Err() != nil {
			b.Fatal(sg.Err())
		}
	}
}

// BenchmarkIngest commits the benchmark corpus (ingest and flush) into
// a fresh store per iteration.
func BenchmarkIngest(b *testing.B) {
	triples := benchTriples()
	root := b.TempDir()
	added := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, "s")
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		added = commitBenchCorpus(b, st, triples)
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(added)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkScan is one full SPO scan of the benchmark corpus, decoding
// every triple.
func BenchmarkScan(b *testing.B) {
	ctx := context.Background()
	st, _, _ := openBenchCorpus(b)
	defer st.Close()
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := st.Graph(ctx, "base")
		if err != nil {
			b.Fatal(err)
		}
		rows += len(sg.Triples())
		if err := sg.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkReopen is a cold OpenExisting of the benchmark corpus:
// registry load, segment header and CRC validation, term-dictionary
// replay. Every reopen must recover every committed triple.
func BenchmarkReopen(b *testing.B) {
	st, dir, added := openBenchCorpus(b)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	var segBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenExisting(dir)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := st.StoreStats()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Triples != added {
			b.Fatalf("reopen lost triples: committed %d, recovered %d", added, stats.Triples)
		}
		segBytes = stats.SegmentBytes
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(segBytes)/float64(added), "bytes/triple")
}

// TestUndecodableTermIsCorrupt reseals a segment in which one SPO key
// holds an undecodable term: ComputeStats over the corpus must latch a
// CorruptError rather than count the bad encoding as a term, and
// Verify must report one.
func TestUndecodableTermIsCorrupt(t *testing.T) {
	long := "http://example.org/an-object-longer-than-eight-bytes"
	triples := append(testTriples(21, 40), rdf.Triple{S: "s", P: "p", O: long})
	for name, damage := range map[string]func(key []byte){
		"bad kind byte":      func(key []byte) { key[keyBase] = 0x07 },
		"nonzero padding":    func(key []byte) { key[keyBase+1+len("s")] = 'x' },
		"handle not in dict": func(key []byte) { key[keyBase+2*encodedTermSize+1] ^= 0xFF },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestTriples(ctx, "g", triples); err != nil {
				t.Fatal(err)
			}
			c, err := st.Lookup("g")
			if err != nil {
				t.Fatal(err)
			}
			target := append(corpusPrefix(c.ID, idxSPO), appendTerm(nil, "s", st.dict)...)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rewriteSegmentKey(t, dir, func(key []byte) bool {
				if !bytes.HasPrefix(key, target) {
					return false
				}
				damage(key)
				return true
			})

			st, err = Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Close()
			sg, err := st.Graph(ctx, "g")
			if err != nil {
				t.Fatal(err)
			}
			stats := rdf.ComputeStats(sg)
			if !IsCorrupt(sg.Err()) {
				t.Fatalf("ComputeStats over a key with an undecodable term: want CorruptError, got %v (stats %+v)", sg.Err(), stats)
			}
			// The decoding readers latch the same error.
			if sg, err = st.Graph(ctx, "g"); err != nil {
				t.Fatal(err)
			}
			if sg.Triples(); !IsCorrupt(sg.Err()) {
				t.Fatalf("Triples over a key with an undecodable term: want CorruptError, got %v", sg.Err())
			}
			if err := st.Verify(ctx); !IsCorrupt(err) {
				t.Fatalf("Verify over a key with an undecodable term: want CorruptError, got %v", err)
			}
		})
	}
}

// rewriteSegmentKey rewrites the one segment in dir with fix applied
// to every key (fix reports whether it changed the key), resorted and
// under freshly computed CRCs. It fails the test unless exactly one key
// changed.
func rewriteSegmentKey(t *testing.T, dir string, fix func(key []byte) bool) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(paths) != 1 {
		t.Fatalf("want one segment, found %d", len(paths))
	}
	recs := readRecords(t, paths[0])
	changed := 0
	for _, r := range recs {
		if fix(r.key) {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("rewrite changed %d keys, want 1", changed)
	}
	sortRecords(recs)
	if err := writeSegment(paths[0], recs); err != nil {
		t.Fatal(err)
	}
}

// readRecords returns a copy of every record of the segment at path.
func readRecords(t *testing.T, path string) []record {
	t.Helper()
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	var recs []record
	err = seg.scanPrefix(nil, nil, nil, func(key, val []byte) bool {
		recs = append(recs, record{key: bytes.Clone(key), val: bytes.Clone(val)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestLogCorpusKeepsDuplicatesAndOrder(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	lines := []string{"q1", "q2", "q1", "", "q3", "q1"}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestLog(ctx, "log", lines[:3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Second batch in a second segment, after a reopen.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.IngestLog(ctx, "log", lines[3:]); err != nil {
		t.Fatal(err)
	}
	got, err := st.LogLines(ctx, "log")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, lines) {
		t.Fatalf("log lines diverge: got %q want %q", got, lines)
	}
}

func TestCompactMergesToOneSegment(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	all := testTriples(17, 300)
	want := memGraph(all)

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < len(all); i += 60 {
		end := i + 60
		if end > len(all) {
			end = len(all)
		}
		if _, err := st.IngestTriples(ctx, "g", all[i:end]); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.IngestLog(ctx, "log", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := st.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Fatalf("compaction left %d segments", stats.Segments)
	}
	sg, err := st.Graph(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	got := sg.Triples()
	wantT := append([]rdf.Triple(nil), want.Triples()...)
	sortTriples(got)
	sortTriples(wantT)
	if !reflect.DeepEqual(got, wantT) {
		t.Fatalf("triples diverge after compaction")
	}
	if lines, err := st.LogLines(ctx, "log"); err != nil || !reflect.DeepEqual(lines, []string{"a", "b", "c"}) {
		t.Fatalf("log lines diverge after compaction: %q %v", lines, err)
	}
	if err := st.Verify(ctx); err != nil {
		t.Fatalf("verify after compaction: %v", err)
	}
}

func TestOpenExistingRefusesMissingStore(t *testing.T) {
	if _, err := OpenExisting(filepath.Join(t.TempDir(), "nope")); err == nil || !strings.Contains(err.Error(), "no store") {
		t.Fatalf("missing dir: %v", err)
	}
	empty := t.TempDir()
	if _, err := OpenExisting(empty); err == nil {
		t.Fatalf("empty dir accepted as store")
	}
}

func TestCorpusKindMismatch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if _, err := st.IngestLog(ctx, "c", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestTriples(ctx, "g", testTriples(1, 5)); err != nil {
		t.Fatal(err)
	}
	// A wrong kind is the caller's mistake, never reported as corruption.
	wrongKind := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrWrongKind) || IsCorrupt(err) {
			t.Fatalf("%s: want ErrWrongKind and not CorruptError, got %v", what, err)
		}
	}
	_, err = st.IngestTriples(ctx, "c", testTriples(1, 5))
	wrongKind("IngestTriples into a log corpus", err)
	_, err = st.Graph(ctx, "c")
	wrongKind("Graph over a log corpus", err)
	_, err = st.LogLines(ctx, "g")
	wrongKind("LogLines of a triples corpus", err)
	if _, err := st.Graph(ctx, "absent"); err == nil {
		t.Fatal("Graph over an unknown corpus accepted")
	}
}

// TestCorpusNameBound checks that CreateCorpus refuses new names over
// MaxCorpusName bytes or not valid UTF-8, and that a registry written
// with a longer name still opens, lists it and reads its lines.
func TestCorpusNameBound(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{strings.Repeat("n", MaxCorpusName+1), "bad\xff"} {
		if _, err := st.IngestLog(ctx, name, []string{"x"}); !errors.Is(err, ErrBadCorpusName) {
			t.Fatalf("IngestLog into a %d-byte name: %v, want ErrBadCorpusName", len(name), err)
		}
	}
	if _, err := st.IngestLog(ctx, strings.Repeat("n", MaxCorpusName), []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestLog(ctx, "short", []string{"q1", "q2"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rename "short" in the registry as an older store could have.
	long := strings.Repeat("long name ", 10000)
	path := filepath.Join(dir, "corpora.json")
	reg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	quoted, _ := json.Marshal(long)
	reg = bytes.Replace(reg, []byte(`"short"`), quoted, 1)
	if err := os.WriteFile(path, reg, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenExisting(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	list, err := st.Corpora(ctx)
	if err != nil || len(list) != 2 || list[0].Name != long {
		t.Fatalf("Corpora = %+v, %v; want the long name listed", list, err)
	}
	if lines, err := st.LogLines(ctx, long); err != nil || !reflect.DeepEqual(lines, []string{"q1", "q2"}) {
		t.Fatalf("LogLines(long name) = %v, %v", lines, err)
	}
	if _, err := st.IngestLog(ctx, long, []string{"q3"}); err != nil {
		t.Fatalf("IngestLog into the existing long name: %v", err)
	}
}

func TestContextCancellationStopsScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if _, err := st.IngestTriples(ctx, "g", testTriples(3, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	sg, err := st.Graph(cctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_ = sg.Triples()
	if sg.Err() == nil {
		t.Fatal("cancelled scan reported no error")
	}
}
