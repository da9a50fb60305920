package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
