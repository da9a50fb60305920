package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// refSegment is the sorted in-memory reference the segment reads are
// checked against.
type refSegment []record

func (r refSegment) lowerBound(target []byte) int {
	return sort.Search(len(r), func(i int) bool { return bytes.Compare(r[i].key, target) >= 0 })
}

func (r refSegment) withPrefix(prefix []byte) []string {
	var out []string
	for _, rec := range r {
		if bytes.HasPrefix(rec.key, prefix) {
			out = append(out, string(rec.key)+"="+string(rec.val))
		}
	}
	return out
}

// testRecords returns n sorted records keyed "k%03d" over even numbers,
// so odd numbers probe the gaps, with values of varying length (some
// empty).
func testRecords(n int) refSegment {
	ref := make(refSegment, n)
	for i := range ref {
		ref[i] = record{
			key: []byte(fmt.Sprintf("k%03d", 2*i)),
			val: []byte(strings.Repeat("v", i%5)),
		}
	}
	return ref
}

// writeTestSegment commits testRecords(n) and opens the segment.
func writeTestSegment(t *testing.T, n int) (*segment, refSegment) {
	t.Helper()
	ref := testRecords(n)
	path := filepath.Join(t.TempDir(), "seg-000001.seg")
	if err := writeSegment(path, ref); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.close() })
	return seg, ref
}

// TestSegmentReadsMatchReference checks get, lowerBound, rangeSize,
// readKey and scanPrefix against a sorted in-memory reference at the
// segment sizes where the block index changes shape.
func TestSegmentReadsMatchReference(t *testing.T) {
	for _, n := range []int{0, 1, blockRecords - 1, blockRecords, blockRecords + 1, 2*blockRecords + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			seg, ref := writeTestSegment(t, n)
			if seg.count != n {
				t.Fatalf("count %d, want %d", seg.count, n)
			}

			// Every stored key (block first keys among them), every gap,
			// and keys before the first record and after the last.
			probes := []string{"", "a", "k", "k-", "k0", "z", "k999", "k9999"}
			for i := 0; i <= 2*n; i++ {
				probes = append(probes, fmt.Sprintf("k%03d", i), fmt.Sprintf("k%03d~", i))
			}
			for _, p := range probes {
				key := []byte(p)
				lo, err := seg.lowerBound(key, nil)
				if want := ref.lowerBound(key); err != nil || lo != want {
					t.Fatalf("lowerBound(%q) = %d, %v; want %d", p, lo, err, want)
				}
				val, ok, err := seg.get(key, nil)
				i := ref.lowerBound(key)
				wantOK := i < n && string(ref[i].key) == p
				if err != nil || ok != wantOK || (ok && !bytes.Equal(val, ref[i].val)) {
					t.Fatalf("get(%q) = %q, %v, %v; want found=%v", p, val, ok, err, wantOK)
				}
			}
			for i := 0; i < n; i++ {
				if k, err := seg.readKey(i); err != nil || !bytes.Equal(k, ref[i].key) {
					t.Fatalf("readKey(%d) = %q, %v; want %q", i, k, err, ref[i].key)
				}
			}

			// Prefixes inside one block, across block boundaries (k06 holds
			// records 30–34, k12 records 60–64), and wholly outside.
			prefixes := []string{"", "k", "k0", "k00", "k06", "k12", "k1", "a", "j", "l", "z", "k9", "k000", "k0000"}
			for i := 0; i < n; i++ {
				prefixes = append(prefixes, string(ref[i].key))
			}
			for _, p := range prefixes {
				prefix := []byte(p)
				var got []string
				err := seg.scanPrefix(prefix, nil, nil, func(k, v []byte) bool {
					got = append(got, string(k)+"="+string(v))
					return true
				})
				if want := ref.withPrefix(prefix); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("scanPrefix(%q) = %q, %v; want %q", p, got, err, want)
				}
				if size, err := seg.rangeSize(prefix, nil); err != nil || size != len(got) {
					t.Fatalf("rangeSize(%q) = %d, %v; want %d", p, size, err, len(got))
				}
				got = got[:0]
				err = seg.scanPrefix(prefix, nil, nil, func(k, v []byte) bool {
					got = append(got, string(k)+"="+string(v))
					return false
				})
				if want := ref.withPrefix(prefix); err != nil || len(got) != min(1, len(want)) {
					t.Fatalf("scanPrefix(%q) stopped early returned %q, %v", p, got, err)
				}
			}

			// Keys outside [first, last] are answered from the index: with
			// the file closed, any read would fail.
			seg.close()
			for p, want := range map[string]int{"a": 0, "k": 0, "k000": 0, "z": n, "k999": n} {
				key := []byte(p)
				if lo, err := seg.lowerBound(key, nil); err != nil || lo != want {
					t.Fatalf("closed lowerBound(%q) = %d, %v; want %d", p, lo, err, want)
				}
				if p == "k000" {
					continue // the first key itself: get must read its value
				}
				if _, ok, err := seg.get(key, nil); err != nil || ok {
					t.Fatalf("closed get(%q): ok=%v err=%v", p, ok, err)
				}
			}
			for _, p := range []string{"a", "j", "l", "z", "k9"} {
				if err := seg.scanPrefix([]byte(p), nil, nil, func(k, v []byte) bool { return true }); err != nil {
					t.Fatalf("closed scanPrefix(%q): %v", p, err)
				}
				if size, err := seg.rangeSize([]byte(p), nil); err != nil || size != 0 {
					t.Fatalf("closed rangeSize(%q) = %d, %v", p, size, err)
				}
			}
		})
	}
}

// TestIngestPrunesOtherCorpusSegments pins the key-range pruning: a
// corpus's keys sort outside every segment of another corpus, so
// ingesting into it compares no keys against those segments.
func TestIngestPrunesOtherCorpusSegments(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := st.IngestTriples(ctx, "a", testTriples(int64(i), 50)); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	compared := func(name string, triples []rdf.Triple) int64 {
		tctx, root := (&obs.Tracer{}).StartRoot(ctx, "test")
		if _, err := st.IngestTriples(tctx, name, triples); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		var n int64
		root.Tree().Walk(func(node *obs.Node) { n += node.Counters["keys_compared"] })
		return n
	}
	if n := compared("b", testTriples(99, 200)); n != 0 {
		t.Fatalf("ingest into b compared %d keys against a's segments, want 0", n)
	}
	if n := compared("a", testTriples(0, 50)); n == 0 {
		t.Fatal("re-ingest into a compared no keys: the counter is not wired")
	}
}

// TestConcurrentReadsDuringIngest reads one corpus through the block
// index from several goroutines while another goroutine ingests and
// flushes a second corpus, adding segments under the readers.
func TestConcurrentReadsDuringIngest(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	triples := testTriples(5, 300)
	if _, err := st.IngestTriples(ctx, "g", triples); err != nil {
		t.Fatal(err)
	}
	want := rdf.ComputeStats(memGraph(triples))

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sg, err := st.Graph(ctx, "g")
				if err != nil {
					t.Error(err)
					return
				}
				if got := rdf.ComputeStats(sg); sg.Err() != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("stats diverge under concurrent ingest (err %v)", sg.Err())
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := st.IngestTriples(ctx, "w", testTriples(int64(100+i), 40)); err != nil {
				t.Error(err)
				return
			}
			if err := st.Flush(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// resealSegment recomputes both CRCs of a segment file image, so that
// damage to it reaches the structural checks behind them.
func resealSegment(data []byte) {
	binary.BigEndian.PutUint32(data[24:28], crc32.ChecksumIEEE(data[segHeaderSize:]))
	binary.BigEndian.PutUint32(data[28:32], crc32.ChecksumIEEE(data[:28]))
}

// TestSegmentStructuralDamage damages a three-block segment behind
// valid CRCs: the block index must refuse it at open, and a record
// that overruns its block must fail the read that reaches it.
func TestSegmentStructuralDamage(t *testing.T) {
	committed := testRecords(2*blockRecords + 1)
	path := filepath.Join(t.TempDir(), "seg-000001.seg")
	if err := writeSegment(path, committed); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table := len(orig) - 8*len(committed)
	offset := func(i int) int { return int(binary.BigEndian.Uint64(orig[table+8*i:])) }
	damaged := func(mutate func(b []byte)) *segment {
		b := append([]byte(nil), orig...)
		mutate(b)
		resealSegment(b)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := openSegment(path)
		if err != nil && !IsCorrupt(err) {
			t.Fatalf("want CorruptError, got %v", err)
		}
		return seg
	}

	for name, mutate := range map[string]func([]byte){
		// The last block then holds one record too few and ends in the
		// first offset-table entry.
		"count one short": func(b []byte) { b[15]-- },
		// Block 2 would start inside block 0, before block 1.
		"block offset backwards": func(b []byte) {
			copy(b[table+8*2*blockRecords:], b[table+8:table+16])
		},
		"block offset past the records": func(b []byte) {
			binary.BigEndian.PutUint64(b[table+8*blockRecords:], uint64(table-segHeaderSize))
		},
		"first key overruns its block": func(b []byte) {
			binary.BigEndian.PutUint16(b[segHeaderSize+offset(blockRecords):], 0xFFFF)
		},
		"last block value overruns": func(b []byte) {
			b[segHeaderSize+offset(len(committed)-1)+2+4] = 0x01
		},
	} {
		if seg := damaged(mutate); seg != nil {
			seg.close()
			t.Errorf("%s: open accepted the segment", name)
		}
	}

	// A value length inside block 0 pointing past the block: open only
	// decodes block first keys and the last block, so the read fails.
	seg := damaged(func(b []byte) { b[segHeaderSize+offset(1)+2+4] = 0x01 })
	if seg == nil {
		t.Fatal("open rejected damage inside a middle record; the read path is untested")
	}
	defer seg.close()
	if _, _, err := seg.get(committed[2].key, nil); !IsCorrupt(err) {
		t.Errorf("get through an overrunning record: want CorruptError, got %v", err)
	}
	if err := seg.scanPrefix(nil, nil, nil, func(k, v []byte) bool { return true }); !IsCorrupt(err) {
		t.Errorf("scan through an overrunning record: want CorruptError, got %v", err)
	}
	if _, err := seg.readKey(5); !IsCorrupt(err) {
		t.Errorf("readKey through an overrunning record: want CorruptError, got %v", err)
	}
}

// checkProbeSorted sorts probes and checks segment.probeSorted against
// a per-key segment.get on each: the same found bits, and a
// *CorruptError from the probe exactly when a get of one of the keys
// returns one. It returns the number of blocks the probe read.
func checkProbeSorted(t *testing.T, seg *segment, probes [][]byte) int {
	t.Helper()
	keys := append([][]byte(nil), probes...)
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	found := make([]bool, len(keys))
	blocks, err := seg.probeSorted(keys, found, nil)
	var getErr error
	for i, k := range keys {
		_, ok, gerr := seg.get(k, nil)
		if gerr != nil {
			if getErr == nil {
				getErr = gerr
			}
			continue
		}
		if err == nil && ok != found[i] {
			t.Fatalf("key %q: probeSorted found=%v, get found=%v", k, found[i], ok)
		}
	}
	if (err != nil) != (getErr != nil) || (err != nil && !IsCorrupt(err)) {
		t.Fatalf("probeSorted err %v, get err %v: want both nil or both a CorruptError", err, getErr)
	}
	if blocks > len(seg.blockOff) {
		t.Fatalf("probeSorted read %d blocks of a %d-block segment", blocks, len(seg.blockOff))
	}
	return blocks
}

// TestProbeSortedMatchesGet checks the batched dedup probe against
// per-key get on segments of one to six blocks: keys present, absent,
// below the first key, above the last, in the gap between two blocks,
// and repeated — and through a block damaged behind valid CRCs.
func TestProbeSortedMatchesGet(t *testing.T) {
	for _, n := range []int{0, 1, blockRecords, blockRecords + 1, 2*blockRecords + 1, 5*blockRecords + 3} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			seg, ref := writeTestSegment(t, n)
			// Even numbers are stored, odd ones fall in the gaps; 2*blockRecords-1
			// sits between block 0's last key and block 1's first.
			var all [][]byte
			for i := -1; i <= 2*n+1; i++ {
				all = append(all, []byte(fmt.Sprintf("k%03d", i)))
			}
			all = append(all, []byte("a"), []byte("k"), []byte("z"))
			if blocks := checkProbeSorted(t, seg, all); blocks != len(seg.blockOff) {
				t.Fatalf("a probe of every key read %d blocks, want each of %d once", blocks, len(seg.blockOff))
			}
			checkProbeSorted(t, seg, append(all, all...))
			checkProbeSorted(t, seg, [][]byte{[]byte("a"), []byte("z")})
			checkProbeSorted(t, seg, nil)
			r := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < 20; trial++ {
				var sub [][]byte
				for _, k := range all {
					for r.Intn(3) == 0 {
						sub = append(sub, k)
					}
				}
				checkProbeSorted(t, seg, sub)
			}
			for _, rec := range ref {
				checkProbeSorted(t, seg, [][]byte{rec.key})
			}
		})
	}

	t.Run("damaged block", func(t *testing.T) {
		seg, ref := writeTestSegment(t, 2*blockRecords+1)
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		// Record 1's value length now points past block 0 (as in
		// TestSegmentStructuralDamage): open accepts it, a read of the
		// record fails.
		table := len(data) - 8*len(ref)
		data[segHeaderSize+int(binary.BigEndian.Uint64(data[table+8:]))+2+4] = 0x01
		resealSegment(data)
		path := filepath.Join(t.TempDir(), "seg-000002.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bad, err := openSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		defer bad.close()
		for _, probes := range [][][]byte{
			{ref[2].key},
			{ref[1].key, ref[40].key},
			{[]byte("k001"), ref[blockRecords].key},
		} {
			checkProbeSorted(t, bad, probes)
		}
		if _, err := bad.probeSorted([][]byte{ref[2].key}, make([]bool, 1), nil); !IsCorrupt(err) {
			t.Fatalf("probe through an overrunning record: want CorruptError, got %v", err)
		}
	})
}
