package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// FuzzTermCodec fuzzes the term codec from both directions with one
// input: (a, b) as terms — encode/decode round-trip and inline
// order-preservation — and a's raw bytes as a candidate encoded term,
// which decode must reject or accept without ever panicking.
func FuzzTermCodec(f *testing.F) {
	f.Add("", "")
	f.Add("a", "b")
	f.Add("short", "a-term-well-beyond-the-inline-limit")
	f.Add("exactly8", "exactly8")
	f.Add("\x00\x00", "\x00")
	f.Add("prefix", "prefixsuffix")
	f.Add(string([]byte{kindInline, 'a', 0, 0, 0, 0, 0, 0, 0, 1}), "x")
	f.Add(string([]byte{kindHash, 1, 2, 3, 4, 5, 6, 7, 8, 0}), "y")
	f.Fuzz(func(t *testing.T, a, b string) {
		d, _ := openDict("")

		// Round trip, fixed width.
		for _, term := range []string{a, b} {
			enc := appendTerm(nil, term, d)
			if len(enc) != encodedTermSize {
				t.Fatalf("encoded %q to %d bytes", term, len(enc))
			}
			got, err := decodeTerm(enc, d)
			if err != nil {
				t.Fatalf("decode of just-encoded %q: %v", term, err)
			}
			if got != term {
				t.Fatalf("round trip %q -> %q", term, got)
			}
		}

		// Equality must be preserved for every term pair; order must be
		// preserved whenever both terms inline.
		ea := appendTerm(nil, a, d)
		eb := appendTerm(nil, b, d)
		if (a == b) != bytes.Equal(ea, eb) {
			t.Fatalf("equality broken for %q vs %q", a, b)
		}
		if len(a) <= inlineMax && len(b) <= inlineMax {
			if sign(bytes.Compare(ea, eb)) != sign(strings.Compare(a, b)) {
				t.Fatalf("inline order broken for %q vs %q", a, b)
			}
		}

		// Arbitrary bytes into the decoder: must never panic, and on
		// success must re-encode to the same bytes (no two encodings
		// decode to one term within a kind).
		raw := []byte(a)
		if term, err := decodeTerm(raw, d); err == nil {
			re := appendTerm(nil, term, d)
			if !bytes.Equal(re, raw[:encodedTermSize]) {
				// A long term decoded via a handle re-encodes to the same
				// handle only if it was interned under it; tolerate the
				// hash kind, reject divergence for inline.
				if raw[0] == kindInline {
					t.Fatalf("inline bytes %v decode to %q which re-encodes to %v", raw[:encodedTermSize], term, re)
				}
			}
		}
	})
}

// FuzzSegmentOpen flips bytes of a committed three-block segment and
// truncates its tail. edits is read as (position hi, position lo, xor)
// triples. As written to disk the CRCs must catch any damage: open
// returns a CorruptError or the segment serves exactly the committed
// rows. With reseal the CRCs are recomputed over the damaged bytes, so
// only the structural checks — offset table, block index, record
// bounds — stand between them and a read: open may then succeed, but
// open and every read must end in an error or data, never a panic.
func FuzzSegmentOpen(f *testing.F) {
	committed := testRecords(2*blockRecords + 1)
	path := filepath.Join(f.TempDir(), "seg-000001.seg")
	if err := writeSegment(path, committed); err != nil {
		f.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	table := len(orig) - 8*len(committed)
	at := func(pos int, xor byte) []byte { return []byte{byte(pos >> 8), byte(pos), xor} }
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{}, uint16(3), false)
	f.Add(at(15, 0x01), uint16(0), false)                        // record count
	f.Add(at(15, 0x01), uint16(0), true)                         // ... resealed
	f.Add(at(segHeaderSize+1, 0x40), uint16(0), true)            // first key length
	f.Add(at(segHeaderSize+400, 0x10), uint16(0), true)          // a block interior
	f.Add(at(table+8*blockRecords+7, 0x02), uint16(0), true)     // second block's offset
	f.Add(at(table+8*blockRecords+6, 0x80), uint16(0), true)     // ... pushed past the records
	f.Add(at(table+8*(2*blockRecords)+7, 0x01), uint16(0), true) // last block's offset
	f.Add(at(table+8*5+7, 0x03), uint16(0), true)                // an offset inside a block
	f.Add([]byte{}, uint16(8*(2*blockRecords+1)), true)          // the offset table cut off
	f.Fuzz(func(t *testing.T, edits []byte, cut uint16, reseal bool) {
		data := append([]byte(nil), orig...)
		for ; len(edits) >= 3; edits = edits[3:] {
			pos := int(edits[0])<<8 | int(edits[1])
			data[pos%len(data)] ^= edits[2]
		}
		data = data[:len(data)-int(cut)%len(data)]
		if reseal && len(data) >= segHeaderSize {
			resealSegment(data)
		}
		p := filepath.Join(t.TempDir(), "seg-000001.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := openSegment(p)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("open of a damaged segment: want CorruptError, got %v", err)
			}
			return
		}
		defer seg.close()

		var rows []string
		scanErr := seg.scanPrefix(nil, nil, nil, func(k, v []byte) bool {
			rows = append(rows, string(k)+"="+string(v))
			return true
		})
		for _, r := range committed {
			seg.get(r.key, nil)
			seg.rangeSize(r.key[:2], nil)
		}
		for i := 0; i < seg.count; i++ {
			seg.readKey(i)
		}
		if !reseal {
			if want := committed.withPrefix(nil); scanErr != nil || !reflect.DeepEqual(rows, want) {
				t.Fatalf("damaged segment opened and served %d rows (err %v), want the %d committed",
					len(rows), scanErr, len(want))
			}
		}
	})
}

// FuzzProbeSorted checks segment.probeSorted against per-key get on a
// segment of n testRecords plus the keys of extra, probed with the
// keys of probes ('/'-separated lists): every found bit must agree, and
// the probe may read no more blocks than the segment has.
func FuzzProbeSorted(f *testing.F) {
	f.Add(uint16(2*blockRecords+1), []byte(""), []byte("k000/k001/k062/k063/k064/a/z/k/k128/k128"))
	f.Add(uint16(blockRecords), []byte("k0/k1/zz"), []byte("k0/k000/k1/k062/zz/zzz"))
	f.Add(uint16(0), []byte("b/d/f"), []byte("a/b/c/d/e/f/g"))
	f.Add(uint16(300), []byte(""), []byte("k300/k301/k598/k599/k600"))
	f.Fuzz(func(t *testing.T, n uint16, extra, probes []byte) {
		recs := testRecords(int(n) % 400)
		have := map[string]bool{}
		for _, r := range recs {
			have[string(r.key)] = true
		}
		for _, k := range bytes.Split(extra, []byte("/")) {
			if len(k) > 0 && len(k) <= 1024 && !have[string(k)] {
				have[string(k)] = true
				recs = append(recs, record{key: k, val: k})
			}
		}
		sortRecords(recs)
		path := filepath.Join(t.TempDir(), "seg-000001.seg")
		if err := writeSegment(path, recs); err != nil {
			t.Fatal(err)
		}
		seg, err := openSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.close()
		checkProbeSorted(t, seg, bytes.Split(probes, []byte("/")))
	})
}

// FuzzDictReplay flips bytes of a committed terms.dat and truncates its
// tail, reading edits and cut as FuzzSegmentOpen does. Every record
// carries a CRC, so damage is never read as a term: open returns a
// CorruptError, or — when the damage or the cut falls in the last
// records, which replay takes for a torn append and drops — the store
// opens and every read of the corpus either serves exactly the
// committed rows, with ComputeStats equal to the in-memory stats, or
// latches a CorruptError for a key whose handle the dictionary lost.
func FuzzDictReplay(f *testing.F) {
	ctx := context.Background()
	triples := withLongTerms(withLongTerms(testTriples(31, 20), "one"), "two")
	src := f.TempDir()
	st, err := Open(src)
	if err != nil {
		f.Fatal(err)
	}
	half := len(triples) / 2
	for _, batch := range [][]rdf.Triple{triples[:half], triples[half:]} {
		if _, err := st.IngestTriples(ctx, "g", batch); err != nil {
			f.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
			f.Fatal(err)
		}
	}
	dictData := files["terms.dat"]
	var starts []int // record offsets
	for off := 0; off < len(dictData); {
		_, n, err := parseDictRecord(dictData[off:])
		if err != nil {
			f.Fatal(err)
		}
		starts = append(starts, off)
		off += n
	}
	last := starts[len(starts)-1]
	want := append([]rdf.Triple(nil), memGraph(triples).Triples()...)
	sortTriples(want)
	wantStats := rdf.ComputeStats(memGraph(triples))

	at := func(pos int, xor byte) []byte { return []byte{byte(pos >> 8), byte(pos), xor} }
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{}, uint16(1))                                 // the last record's CRC cut
	f.Add([]byte{}, uint16(len(dictData)-last))                // the last record cut whole
	f.Add([]byte{}, uint16(len(dictData)))                     // everything cut
	f.Add(at(0, 0x01), uint16(0))                              // first marker
	f.Add(at(starts[1]-1, 0x01), uint16(0))                    // first record's CRC
	f.Add(at(20, 0x40), uint16(0))                             // first term's bytes
	f.Add(at(last+3, 0x01), uint16(0))                         // last record's handle
	f.Add(at(last+12, 0x01), uint16(0))                        // last record's length
	f.Add(append(at(5, 0x01), at(last+5, 0x01)...), uint16(2)) // two records and a cut
	f.Fuzz(func(t *testing.T, edits []byte, cut uint16) {
		data := append([]byte(nil), dictData...)
		for ; len(edits) >= 3; edits = edits[3:] {
			pos := int(edits[0])<<8 | int(edits[1])
			data[pos%len(data)] ^= edits[2]
		}
		data = data[:len(data)-int(cut)%(len(data)+1)]
		dir := t.TempDir()
		for name, b := range files {
			if name == "terms.dat" {
				b = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("open with a damaged dictionary: want CorruptError, got %v", err)
			}
			return
		}
		defer st.Close()
		sg, err := st.Graph(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		rows := sg.Triples()
		stats := rdf.ComputeStats(sg)
		if err := sg.Err(); err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("read with a damaged dictionary: want CorruptError, got %v", err)
			}
			return
		}
		sortTriples(rows)
		if !reflect.DeepEqual(rows, want) || !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("damaged dictionary opened and served %d rows, want the %d committed (stats equal: %v)",
				len(rows), len(want), reflect.DeepEqual(stats, wantStats))
		}
	})
}
