package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// dict is the persistent term dictionary: handle ↔ term for every term
// too long to inline into its encoded form. In memory it is two maps;
// on disk it is an append-only record log (terms.dat) with a CRC per
// record:
//
//	[marker 0xD1][handle 8B BE][len 4B BE][term bytes][crc32 4B BE]
//
// The CRC covers marker through term bytes. Recovery scans the log
// from the start; a torn final record (crash mid-append) is tolerated
// by truncating the file back to the last whole record, which is safe
// because dictionary entries are synced before any segment that
// references them (see Store.Flush) — a lost tail can only name terms
// no committed segment uses. A bad record with more records after it
// is corruption, not a torn tail, and fails the open.
type dict struct {
	mu       sync.RWMutex
	byHandle map[uint64]string
	byTerm   map[string]uint64
	// pending are interned terms not yet persisted; Store.Flush appends
	// and syncs them before committing any segment.
	pending []uint64

	path string
	f    *os.File
}

const dictMarker byte = 0xD1

// openDict loads (or creates) the dictionary log at path. A nil path
// produces a memory-only dictionary (used by tests and the fuzz
// target).
func openDict(path string) (*dict, error) {
	d := &dict{
		byHandle: map[uint64]string{},
		byTerm:   map[string]uint64{},
		path:     path,
	}
	if path == "" {
		return d, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	d.f = f
	if err := d.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// recover replays the record log, truncating a torn tail.
func (d *dict) recover() error {
	data, err := io.ReadAll(d.f)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		rec, n, err := parseDictRecord(data[off:])
		if err != nil {
			// A bad record is a torn tail only if nothing follows it
			// that parses; otherwise the middle of the log is damaged.
			if tailIsGarbage(data[off:]) {
				if terr := d.f.Truncate(int64(off)); terr != nil {
					return terr
				}
				if _, serr := d.f.Seek(int64(off), io.SeekStart); serr != nil {
					return serr
				}
				return nil
			}
			return &CorruptError{Path: d.path, Reason: fmt.Sprintf("dictionary record at offset %d: %v", off, err)}
		}
		if prev, ok := d.byHandle[rec.handle]; ok && prev != rec.term {
			return &CorruptError{Path: d.path, Reason: fmt.Sprintf("handle %016x maps to two terms", rec.handle)}
		}
		// intern never gives a term a second handle; two would let equal
		// terms in stored keys count as distinct ones.
		if prev, ok := d.byTerm[rec.term]; ok && prev != rec.handle {
			return &CorruptError{Path: d.path, Reason: fmt.Sprintf("term at offset %d has two handles, %016x and %016x", off, prev, rec.handle)}
		}
		d.byHandle[rec.handle] = rec.term
		d.byTerm[rec.term] = rec.handle
		off += n
	}
	_, err = d.f.Seek(int64(off), io.SeekStart)
	return err
}

type dictRecord struct {
	handle uint64
	term   string
}

// parseDictRecord decodes one record from the front of b, returning the
// record and its encoded length.
func parseDictRecord(b []byte) (dictRecord, int, error) {
	if len(b) < 13 {
		return dictRecord{}, 0, errors.New("short record header")
	}
	if b[0] != dictMarker {
		return dictRecord{}, 0, fmt.Errorf("bad marker 0x%02x", b[0])
	}
	h := binary.BigEndian.Uint64(b[1:9])
	n := int(binary.BigEndian.Uint32(b[9:13]))
	if n < 0 || n > 1<<28 || len(b) < 13+n+4 {
		return dictRecord{}, 0, errors.New("record truncated")
	}
	want := binary.BigEndian.Uint32(b[13+n : 13+n+4])
	if crc32.ChecksumIEEE(b[:13+n]) != want {
		return dictRecord{}, 0, errors.New("crc mismatch")
	}
	return dictRecord{handle: h, term: string(b[13 : 13+n])}, 13 + n + 4, nil
}

// tailIsGarbage reports whether no whole record parses anywhere in b —
// the signature of a torn final append rather than mid-log damage.
func tailIsGarbage(b []byte) bool {
	for off := 1; off < len(b); off++ {
		if b[off] != dictMarker {
			continue
		}
		if _, _, err := parseDictRecord(b[off:]); err == nil {
			return false
		}
	}
	return true
}

// intern returns the handle for term, assigning one on first use.
// Collisions on the base FNV-1a hash are resolved by deterministic
// re-hashing, so handles preserve equality exactly.
func (d *dict) intern(term string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.byTerm[term]; ok {
		return h
	}
	h := fnvHash(term)
	for i := 0; ; i++ {
		prev, taken := d.byHandle[h]
		if !taken {
			break
		}
		if prev == term {
			break
		}
		h = rehash(term, i)
	}
	d.byHandle[h] = term
	d.byTerm[term] = h
	d.pending = append(d.pending, h)
	return h
}

// lookup resolves a handle.
func (d *dict) lookup(h uint64) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	term, ok := d.byHandle[h]
	return term, ok
}

// len returns the number of interned terms.
func (d *dict) len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byHandle)
}

// flush appends and syncs every pending record. It must complete
// before any segment referencing the new handles is committed.
func (d *dict) flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pending) == 0 || d.f == nil {
		d.pending = nil
		return nil
	}
	var buf []byte
	for _, h := range d.pending {
		term := d.byHandle[h]
		start := len(buf)
		buf = append(buf, dictMarker)
		buf = binary.BigEndian.AppendUint64(buf, h)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(term)))
		buf = append(buf, term...)
		buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	if err := failpoint("dict.append"); err != nil {
		return err
	}
	if _, err := d.f.Write(buf); err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.pending = nil
	return nil
}

// close flushes and closes the log.
func (d *dict) close() error {
	if err := d.flush(); err != nil {
		return err
	}
	if d.f == nil {
		return nil
	}
	return d.f.Close()
}
