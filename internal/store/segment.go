package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Segment file format. A segment is an immutable, sorted run of
// key/value records, flushed from the memtable or produced by
// compaction:
//
//	header (32 bytes):
//	  magic   "RWDSEG01"           8B
//	  version uint32 BE            4B  (currently 1)
//	  count   uint32 BE            4B  record count
//	  dataLen uint64 BE            8B  bytes after the header
//	  dataCRC uint32 BE            4B  CRC-32 (IEEE) of the data region
//	  hdrCRC  uint32 BE            4B  CRC-32 of the 28 header bytes above
//	data region (dataLen bytes):
//	  records, sorted by key:  [keyLen uint16 BE][key][valLen uint32 BE][val]
//	  offset table:            count × uint64 BE (record offsets into the
//	                           data region); open keeps every
//	                           blockRecords-th entry as the block index
//
// Segments are written to a ".tmp" name, synced, and renamed into
// place: the rename is the commit. openSegment verifies the magic,
// both CRCs, and the exact file length, so a torn or tampered segment
// is rejected as corruption rather than partially read — stray .tmp
// files from a crash are deleted at open and were never committed.
const (
	segMagic      = "RWDSEG01"
	segVersion    = 1
	segHeaderSize = 32
)

// record is one key/value pair bound for a segment.
type record struct {
	key, val []byte
}

// sortRecords orders records by key (keys are unique within a flush).
func sortRecords(recs []record) {
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].key, recs[j].key) < 0 })
}

// writeSegment builds and atomically commits a segment file at path.
func writeSegment(path string, recs []record) error {
	var data []byte
	offsets := make([]uint64, len(recs))
	for i, r := range recs {
		offsets[i] = uint64(len(data))
		data = binary.BigEndian.AppendUint16(data, uint16(len(r.key)))
		data = append(data, r.key...)
		data = binary.BigEndian.AppendUint32(data, uint32(len(r.val)))
		data = append(data, r.val...)
	}
	for _, off := range offsets {
		data = binary.BigEndian.AppendUint64(data, off)
	}

	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, segVersion)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(recs)))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(data)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(data))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := failpoint("segment.write"); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(hdr); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := failpoint("segment.sync"); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := failpoint("segment.rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes the rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// blockRecords is the stride of the in-memory block index: every
// blockRecords-th record starts a block, and a read fetches one whole
// block with a single ReadAt.
const blockRecords = 32

// segment is an open, validated segment file. Reads go through the OS
// page cache via ReadAt; only a sparse block index lives on the heap —
// the offset and first key of every blockRecords-th record, plus the
// last key — so a store much larger than RAM stays scannable. A key
// outside [first key, last key] is answered from the index alone.
type segment struct {
	path       string
	f          *os.File
	count      int
	dataLen    uint64
	recEnd     uint64   // end of the records region (start of the offset table)
	blockOff   []uint64 // data-region offset of record b*blockRecords
	blockFirst [][]byte // key of record b*blockRecords
	last       []byte   // key of record count-1
}

// openSegment validates and opens path. Any mismatch — bad magic, bad
// CRC, wrong length, a block index that does not fit the records
// region — returns a *CorruptError: a committed segment is
// all-or-nothing.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	corrupt := func(reason string) (*segment, error) {
		f.Close()
		return nil, &CorruptError{Path: path, Reason: reason}
	}
	hdr := make([]byte, segHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return corrupt("header truncated")
	}
	if string(hdr[:8]) != segMagic {
		return corrupt("bad magic")
	}
	if crc32.ChecksumIEEE(hdr[:28]) != binary.BigEndian.Uint32(hdr[28:32]) {
		return corrupt("header crc mismatch")
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != segVersion {
		return corrupt(fmt.Sprintf("unsupported version %d", v))
	}
	count := int(binary.BigEndian.Uint32(hdr[12:16]))
	dataLen := binary.BigEndian.Uint64(hdr[16:24])
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if uint64(st.Size()) != segHeaderSize+dataLen {
		return corrupt(fmt.Sprintf("file is %d bytes, header promises %d", st.Size(), segHeaderSize+dataLen))
	}
	if dataLen < uint64(count)*8 {
		return corrupt("offset table larger than data region")
	}
	data := make([]byte, dataLen)
	if _, err := f.ReadAt(data, segHeaderSize); err != nil {
		return corrupt("data region truncated")
	}
	if crc32.ChecksumIEEE(data) != binary.BigEndian.Uint32(hdr[24:28]) {
		return corrupt("data crc mismatch")
	}
	recEnd := dataLen - uint64(count)*8
	tbl := data[recEnd:]
	s := &segment{path: path, f: f, count: count, dataLen: dataLen, recEnd: recEnd,
		blockOff: make([]uint64, (count+blockRecords-1)/blockRecords)}
	for i := 0; i < count; i++ {
		off := binary.BigEndian.Uint64(tbl[i*8:])
		if off >= recEnd {
			return corrupt(fmt.Sprintf("record offset %d beyond records region", off))
		}
		if b := i / blockRecords; i%blockRecords == 0 {
			// Every record is at least 6 bytes, so block starts strictly increase.
			if b > 0 && off <= s.blockOff[b-1] {
				return corrupt(fmt.Sprintf("block %d offset %d does not follow block %d offset %d", b, off, b-1, s.blockOff[b-1]))
			}
			s.blockOff[b] = off
		}
	}
	// The data region is in memory for the CRC check: take the block
	// first keys from it, and walk the last block for the last key.
	s.blockFirst = make([][]byte, len(s.blockOff))
	for b := range s.blockOff {
		key, _, _, ok := decodeRecord(s.blockBytes(data, b))
		if !ok {
			return corrupt(fmt.Sprintf("block %d: record overruns its block", b))
		}
		s.blockFirst[b] = bytes.Clone(key)
	}
	if b := len(s.blockOff) - 1; b >= 0 {
		err := s.walkBlock(s.blockBytes(data, b), b, func(key, _ []byte) bool {
			s.last = key
			return true
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		s.last = bytes.Clone(s.last)
	}
	return s, nil
}

func (s *segment) close() error { return s.f.Close() }

// blockLen returns the number of records in block b.
func (s *segment) blockLen(b int) int {
	return min(blockRecords, s.count-b*blockRecords)
}

// blockSpan returns the data-region byte range [lo, hi) of block b.
func (s *segment) blockSpan(b int) (lo, hi uint64) {
	hi = s.recEnd
	if b+1 < len(s.blockOff) {
		hi = s.blockOff[b+1]
	}
	return s.blockOff[b], hi
}

// blockBytes returns block b's bytes within an in-memory data region.
func (s *segment) blockBytes(data []byte, b int) []byte {
	lo, hi := s.blockSpan(b)
	return data[lo:hi]
}

// readBlock reads block b with one ReadAt, reusing buf's capacity.
func (s *segment) readBlock(b int, buf []byte) ([]byte, error) {
	lo, hi := s.blockSpan(b)
	n := int(hi - lo)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := s.f.ReadAt(buf, segHeaderSize+int64(lo)); err != nil {
		return nil, fmt.Errorf("store: %s: reading block %d: %w", s.path, b, err)
	}
	return buf, nil
}

// decodeRecord splits the record at the start of buf into its key and
// value and the bytes after it; ok is false when the record overruns
// buf. key and val are capped so appending to them cannot clobber buf.
func decodeRecord(buf []byte) (key, val, rest []byte, ok bool) {
	if len(buf) < 2 {
		return nil, nil, nil, false
	}
	k := 2 + int(binary.BigEndian.Uint16(buf))
	if len(buf) < k+4 {
		return nil, nil, nil, false
	}
	v := uint64(k+4) + uint64(binary.BigEndian.Uint32(buf[k:]))
	if uint64(len(buf)) < v {
		return nil, nil, nil, false
	}
	return buf[2:k:k], buf[k+4 : v : v], buf[v:], true
}

// walkBlock decodes block b's records from buf, its bytes, calling fn
// on each in key order until fn returns false. A record that overruns
// the block, or bytes left over after its last record, are corruption.
func (s *segment) walkBlock(buf []byte, b int, fn func(key, val []byte) bool) error {
	for n := s.blockLen(b); n > 0; n-- {
		key, val, rest, ok := decodeRecord(buf)
		if !ok {
			return &CorruptError{Path: s.path, Reason: fmt.Sprintf("block %d: record overruns its block", b)}
		}
		if !fn(key, val) {
			return nil
		}
		buf = rest
	}
	if len(buf) != 0 {
		return &CorruptError{Path: s.path, Reason: fmt.Sprintf("block %d: %d bytes after its last record", b, len(buf))}
	}
	return nil
}

// seek returns the index of the first record with key >= target and,
// when fn is non-nil, calls fn on that record and each one after it in
// key order until fn returns false. The block index finds the block
// with no I/O; then each block costs one ReadAt. key and val passed to
// fn are valid only until fn returns. Comparisons against block first
// keys and records are counted into compared (nil-safe); the range
// check against the first and last key is not.
func (s *segment) seek(target []byte, compared *int64, fn func(key, val []byte) bool) (int, error) {
	if s.count == 0 || bytes.Compare(target, s.last) > 0 {
		return s.count, nil
	}
	b, seeking := 0, bytes.Compare(target, s.blockFirst[0]) > 0
	if seeking {
		// The last block whose first key is below target holds the answer
		// or ends right before it.
		b = sort.Search(len(s.blockFirst), func(j int) bool {
			if compared != nil {
				*compared++
			}
			return bytes.Compare(s.blockFirst[j], target) >= 0
		}) - 1
	} else if fn == nil {
		return 0, nil
	}
	i := b * blockRecords
	var buf []byte
	for ; b < len(s.blockOff); b++ {
		var err error
		if buf, err = s.readBlock(b, buf); err != nil {
			return i, err
		}
		more := true
		err = s.walkBlock(buf, b, func(key, val []byte) bool {
			if seeking {
				if compared != nil {
					*compared++
				}
				if bytes.Compare(key, target) < 0 {
					i++
					return true
				}
				seeking = false
				if fn == nil {
					more = false
					return false
				}
			}
			more = fn(key, val)
			return more
		})
		if err != nil || !more {
			return i, err
		}
		if seeking && fn == nil {
			return i, nil // the next block's first key is >= target
		}
	}
	return i, nil
}

// lowerBound returns the index of the first record with key >= target,
// counting key comparisons into compared (nil-safe).
func (s *segment) lowerBound(target []byte, compared *int64) (int, error) {
	return s.seek(target, compared, nil)
}

// get returns the value stored under key and whether it exists.
func (s *segment) get(key []byte, compared *int64) (val []byte, found bool, err error) {
	if s.count == 0 || bytes.Compare(key, s.blockFirst[0]) < 0 {
		return nil, false, nil
	}
	_, err = s.seek(key, compared, func(k, v []byte) bool {
		if bytes.Equal(k, key) {
			val, found = v, true
		}
		return false
	})
	return val, found, err
}

// probeSorted sets found[i] for every key of keys, sorted ascending
// (repeats allowed), that the segment holds; it never clears an entry.
// It answers the same as get on each key but makes one forward pass:
// the block index is searched only from the current block onward, each
// block is read at most once into one reused buffer, and its walk stops
// at the first record past the block's last probe key. Keys outside
// [first key, last key] cost no I/O. It returns the number of blocks
// read; comparisons are counted into compared (nil-safe) as in get.
func (s *segment) probeSorted(keys [][]byte, found []bool, compared *int64) (blocks int, err error) {
	if s.count == 0 {
		return 0, nil
	}
	i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], s.blockFirst[0]) >= 0 })
	var buf []byte
	for b := 0; i < len(keys) && bytes.Compare(keys[i], s.last) <= 0; {
		// keys[i] >= blockFirst[b], so the search lands on b or later.
		b += sort.Search(len(s.blockFirst)-b, func(j int) bool {
			if compared != nil {
				*compared++
			}
			return bytes.Compare(s.blockFirst[b+j], keys[i]) > 0
		}) - 1
		var next []byte // first key of block b+1; nil for the last block
		if b+1 < len(s.blockFirst) {
			next = s.blockFirst[b+1]
		}
		inBlock := func() bool { return i < len(keys) && (next == nil || bytes.Compare(keys[i], next) < 0) }
		if buf, err = s.readBlock(b, buf); err != nil {
			return blocks, err
		}
		blocks++
		err = s.walkBlock(buf, b, func(key, _ []byte) bool {
			for inBlock() {
				if compared != nil {
					*compared++
				}
				c := bytes.Compare(keys[i], key)
				if c > 0 {
					return true
				}
				if c == 0 {
					found[i] = true
				}
				i++
			}
			return false
		})
		if err != nil {
			return blocks, err
		}
		for inBlock() { // above the block's last record: absent
			i++
		}
	}
	return blocks, nil
}

// readKey returns the i-th record's key.
func (s *segment) readKey(i int) ([]byte, error) {
	b := i / blockRecords
	buf, err := s.readBlock(b, nil)
	if err != nil {
		return nil, err
	}
	var key []byte
	j := b * blockRecords
	err = s.walkBlock(buf, b, func(k, _ []byte) bool {
		if j == i {
			key = k
			return false
		}
		j++
		return true
	})
	return key, err
}

// prefixUpper returns the smallest key greater than every key with the
// given prefix (nil when the prefix is all 0xFF, meaning "scan to the
// end").
func prefixUpper(prefix []byte) []byte {
	up := append([]byte(nil), prefix...)
	for i := len(up) - 1; i >= 0; i-- {
		if up[i] != 0xFF {
			up[i]++
			return up[:i+1]
		}
	}
	return nil
}

// scanPrefix calls fn for every record whose key starts with prefix, in
// key order; key and val are valid only until fn returns. fn returning
// false stops the scan early. checkpoint, when non-nil, is called every
// scanCheckpointEvery records and aborts the scan when it reports an
// error (cooperative cancellation). A prefix whose keys all sort
// outside [first key, last key] costs no I/O.
func (s *segment) scanPrefix(prefix []byte, compared *int64, checkpoint func() error,
	fn func(key, val []byte) bool) error {
	// Keys with the prefix all sort before a first key above the prefix
	// that does not start with it; seek prunes those after the last key.
	if s.count == 0 || (bytes.Compare(s.blockFirst[0], prefix) > 0 && !bytes.HasPrefix(s.blockFirst[0], prefix)) {
		return nil
	}
	var cerr error
	n := 0
	_, err := s.seek(prefix, compared, func(key, val []byte) bool {
		if checkpoint != nil && n%scanCheckpointEvery == scanCheckpointEvery-1 {
			if cerr = checkpoint(); cerr != nil {
				return false
			}
		}
		n++
		if compared != nil {
			*compared++
		}
		return bytes.HasPrefix(key, prefix) && fn(key, val)
	})
	if err != nil {
		return err
	}
	return cerr
}

// rangeSize returns the number of records whose key starts with prefix.
func (s *segment) rangeSize(prefix []byte, compared *int64) (int, error) {
	lo, err := s.lowerBound(prefix, compared)
	if err != nil {
		return 0, err
	}
	up := prefixUpper(prefix)
	if up == nil {
		return s.count - lo, nil
	}
	hi, err := s.lowerBound(up, compared)
	if err != nil {
		return 0, err
	}
	return hi - lo, nil
}

// scanCheckpointEvery is the cancellation-checkpoint stride of segment
// scans: frequent enough that a deadline interrupts a large scan in
// well under a millisecond of extra work.
const scanCheckpointEvery = 1024
