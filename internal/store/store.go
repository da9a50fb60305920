package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// CorpusKind distinguishes what a corpus holds.
type CorpusKind string

const (
	// KindTriples is an RDF triple set: duplicate-free (RDF set
	// semantics, dedup against the memtable and every committed
	// segment), one SPO key per triple.
	KindTriples CorpusKind = "triples"
	// KindLog is an ingested query log: an append-only sequence of raw
	// lines, duplicates preserved (the log study's Total/Valid/Unique
	// counters depend on them), iterated in ingest order.
	KindLog CorpusKind = "log"
)

// Key layout. Every key begins with the 4-byte big-endian corpus id
// and a 1-byte index tag, so each (corpus, index) pair is one
// contiguous key range:
//
//	triples:  [id 4][idxSPO][S 10][P 10][O 10]        value empty
//	log:      [id 4][idxLog][seq 8 BE]                value = raw line
//
// Reads, counts and dedup probes select one tag's range; Compact
// carries any other key in a segment along unread.
const (
	idxSPO byte = 0x10
	idxLog byte = 0x20
)

// ErrNoStore reports that the directory exists but holds no store (or
// does not exist at all); callers that refuse to silently fall back to
// regeneration test for it with errors.Is.
var ErrNoStore = errors.New("no store at directory")

// ErrUnknownCorpus reports a lookup of a corpus name never created.
var ErrUnknownCorpus = errors.New("unknown corpus")

// ErrWrongKind reports an operation on a corpus of the other kind, such
// as a triples view of a log corpus: the caller's mistake, not damage
// to the store.
var ErrWrongKind = errors.New("wrong corpus kind")

// MaxCorpusName is the longest corpus name, in bytes, that CreateCorpus
// registers. Names must also be valid UTF-8. A registry that already
// holds a longer name still opens, and its corpus still answers.
const MaxCorpusName = 256

// ErrBadCorpusName reports a new corpus name that is not valid UTF-8
// or longer than MaxCorpusName bytes.
var ErrBadCorpusName = fmt.Errorf("corpus name must be valid UTF-8 of at most %d bytes", MaxCorpusName)

// CorruptError reports that an on-disk structure failed validation —
// a committed segment or mid-log dictionary record with a bad CRC,
// wrong length, or bad magic. It is never returned for a torn tail the
// recovery path can safely truncate.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: corrupt: %s", e.Path, e.Reason)
}

// IsCorrupt reports whether err (or anything it wraps) is a
// *CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// testFailpoint, when non-nil, is consulted at the named write
// boundaries (dict.append, segment.write, segment.sync,
// segment.rename); the crash-recovery battery uses it to simulate a
// crash mid-flush. Never set outside tests.
var testFailpoint func(op string) error

func failpoint(op string) error {
	if testFailpoint != nil {
		return testFailpoint(op)
	}
	return nil
}

// Corpus describes one stored corpus.
type Corpus struct {
	Name string     `json:"name"`
	Kind CorpusKind `json:"kind"`
	ID   uint32     `json:"id"`
}

// registry is the corpora.json document.
type registry struct {
	NextID  uint32   `json:"next_id"`
	Corpora []Corpus `json:"corpora"`
}

// Stats is a point-in-time summary of the store, cheap enough for a
// metrics gauge (counts come from range bounds, at most two block
// reads per segment, not full scans).
type Stats struct {
	Corpora      int   `json:"corpora"`
	Segments     int   `json:"segments"`
	Terms        int   `json:"terms"`
	Triples      int   `json:"triples"`
	LogLines     int   `json:"log_lines"`
	PendingKeys  int   `json:"pending_keys"`
	SegmentBytes int64 `json:"segment_bytes"`
}

// CorpusStats summarizes one corpus.
type CorpusStats struct {
	Name     string     `json:"name"`
	Kind     CorpusKind `json:"kind"`
	Entries  int        `json:"entries"`
	Segments int        `json:"segments"`
}

// Store is a persistent triple/log store rooted at one directory. All
// methods are safe for concurrent use. The zero value is unusable; use
// Open.
type Store struct {
	dir string

	mu      sync.RWMutex
	dict    *dict
	segs    []*segment
	mem     map[string][]byte // pending records, key → value
	corpora map[string]Corpus
	nextID  uint32
	nextSeg uint64
	logSeq  map[uint32]uint64 // next log sequence number per corpus id
	gen     map[uint32]uint64 // commit generation per triples corpus id; see RDFStats
	closed  bool

	statsMemo *cache.Cache // corpus id → statsMemoEntry; see RDFStats
}

// Open opens the store at dir, creating the directory (and an empty
// store) if needed. It validates every committed segment and replays
// the term dictionary; leftover temp files from an interrupted flush
// are deleted (they were never committed).
func Open(dir string) (*Store, error) {
	return OpenCtx(context.Background(), dir)
}

// OpenCtx is Open under a context: when ctx carries a span, the open /
// recovery work is recorded as a store.open span with cost counters
// (segments opened, torn temp files discarded, terms replayed), so a
// server start after a crash leaves a trace of what recovery did.
func OpenCtx(ctx context.Context, dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return open(ctx, dir)
}

// OpenExisting opens the store at dir but refuses to create one: a
// missing directory or a directory with no store marker returns
// ErrNoStore. This is the read path of rwdanalyze -store-dir, which
// must fail loudly rather than regenerate.
func OpenExisting(dir string) (*Store, error) {
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("store: %s: %w", dir, ErrNoStore)
	}
	if _, err := os.Stat(filepath.Join(dir, "corpora.json")); err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, ErrNoStore)
	}
	return open(context.Background(), dir)
}

func open(ctx context.Context, dir string) (*Store, error) {
	_, span := obs.StartSpan(ctx, "store.open")
	defer span.Finish()
	span.SetAttr("dir", dir)
	tornTmp := span.Counter("torn_tmp_discarded")
	segsOpened := span.Counter("segments_opened")

	s := &Store{
		dir:     dir,
		mem:     map[string][]byte{},
		corpora: map[string]Corpus{},
		logSeq:  map[uint32]uint64{},
		gen:     map[uint32]uint64{},
		nextID:  1,

		statsMemo: cache.New(statsMemoCorpora),
	}
	if err := s.loadRegistry(); err != nil {
		return nil, err
	}
	d, err := openDict(filepath.Join(dir, "terms.dat"))
	if err != nil {
		return nil, err
	}
	s.dict = d

	entries, err := os.ReadDir(dir)
	if err != nil {
		d.close()
		return nil, err
	}
	var segPaths []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A crash mid-flush: the segment was never renamed into
			// place, so it was never committed. Remove the debris.
			os.Remove(filepath.Join(dir, name))
			tornTmp.Inc()
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
			segPaths = append(segPaths, name)
			if id, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 10, 64); perr == nil && id >= s.nextSeg {
				s.nextSeg = id + 1
			}
		}
	}
	sort.Strings(segPaths)
	for _, name := range segPaths {
		seg, err := openSegment(filepath.Join(dir, name))
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		segsOpened.Inc()
	}
	if err := s.recoverLogSeqs(); err != nil {
		s.closeLocked()
		return nil, err
	}
	span.Count("terms_replayed", int64(s.dict.len()))
	span.Count("corpora_registered", int64(len(s.corpora)))
	return s, nil
}

// recoverLogSeqs rediscovers the next sequence number of every log
// corpus from the committed segments.
func (s *Store) recoverLogSeqs() error {
	for _, c := range s.corpora {
		if c.Kind != KindLog {
			continue
		}
		prefix := corpusPrefix(c.ID, idxLog)
		var next uint64
		for _, seg := range s.segs {
			n, err := seg.rangeSize(prefix, nil)
			if err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			lo, err := seg.lowerBound(prefix, nil)
			if err != nil {
				return err
			}
			key, err := seg.readKey(lo + n - 1)
			if err != nil {
				return err
			}
			if len(key) != len(prefix)+8 {
				return &CorruptError{Path: seg.path, Reason: "log key has wrong width"}
			}
			if seq := binary.BigEndian.Uint64(key[len(prefix):]) + 1; seq > next {
				next = seq
			}
		}
		s.logSeq[c.ID] = next
	}
	return nil
}

func (s *Store) loadRegistry() error {
	path := filepath.Join(s.dir, "corpora.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var reg registry
	if err := json.Unmarshal(data, &reg); err != nil {
		return &CorruptError{Path: path, Reason: "corpora.json: " + err.Error()}
	}
	for _, c := range reg.Corpora {
		s.corpora[c.Name] = c
	}
	s.nextID = reg.NextID
	if s.nextID == 0 {
		s.nextID = 1
	}
	return nil
}

// saveRegistryLocked atomically rewrites corpora.json.
func (s *Store) saveRegistryLocked() error {
	reg := registry{NextID: s.nextID}
	for _, c := range s.corpora {
		reg.Corpora = append(reg.Corpora, c)
	}
	sort.Slice(reg.Corpora, func(i, j int) bool { return reg.Corpora[i].ID < reg.Corpora[j].ID })
	data, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, "corpora.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(s.dir)
}

// Close flushes pending writes and releases every file handle. A
// second Close is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.Flush(context.Background()); err != nil {
		s.mu.Lock()
		s.closeLocked()
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	s.closed = true
	var firstErr error
	if s.dict != nil {
		if err := s.dict.close(); err != nil {
			firstErr = err
		}
		s.dict = nil
	}
	for _, seg := range s.segs {
		if err := seg.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segs = nil
	return firstErr
}

// CreateCorpus registers a corpus. Creating an existing corpus with
// the same kind is a no-op (ingest is additive); a kind mismatch is an
// error, and so is a new name that ErrBadCorpusName rules out.
func (s *Store) CreateCorpus(name string, kind CorpusKind) (Corpus, error) {
	if name == "" {
		return Corpus{}, errors.New("store: corpus name must be non-empty")
	}
	if kind != KindTriples && kind != KindLog {
		return Corpus{}, fmt.Errorf("store: unknown corpus kind %q", kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.corpora[name]; ok {
		if c.Kind != kind {
			return Corpus{}, fmt.Errorf("store: corpus %q is kind %q, not %q: %w", name, c.Kind, kind, ErrWrongKind)
		}
		return c, nil
	}
	if len(name) > MaxCorpusName || !utf8.ValidString(name) {
		return Corpus{}, fmt.Errorf("store: new corpus name of %d bytes: %w", len(name), ErrBadCorpusName)
	}
	c := Corpus{Name: name, Kind: kind, ID: s.nextID}
	s.nextID++
	s.corpora[name] = c
	if err := s.saveRegistryLocked(); err != nil {
		delete(s.corpora, name)
		s.nextID = c.ID
		return Corpus{}, err
	}
	return c, nil
}

// Corpora lists the registered corpora with their committed+pending
// entry counts, sorted by name.
func (s *Store) Corpora(ctx context.Context) ([]CorpusStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []CorpusStats
	for _, c := range s.corpora {
		n, segs, err := s.entriesLocked(c, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, CorpusStats{Name: c.Name, Kind: c.Kind, Entries: n, Segments: segs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, ctx.Err()
}

// Lookup returns the corpus registered under name.
func (s *Store) Lookup(name string) (Corpus, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.corpora[name]
	if !ok {
		return Corpus{}, fmt.Errorf("store: %q: %w", name, ErrUnknownCorpus)
	}
	return c, nil
}

// entriesLocked counts a corpus's primary-index records across the
// committed segments and the memtable, and the number of segments that
// hold at least one of them.
func (s *Store) entriesLocked(c Corpus, compared *int64) (entries, segments int, err error) {
	idx := idxSPO
	if c.Kind == KindLog {
		idx = idxLog
	}
	prefix := corpusPrefix(c.ID, idx)
	for _, seg := range s.segs {
		k, err := seg.rangeSize(prefix, compared)
		if err != nil {
			return 0, 0, err
		}
		entries += k
		if k > 0 {
			segments++
		}
	}
	for key := range s.mem {
		if strings.HasPrefix(key, string(prefix)) {
			entries++
		}
	}
	return entries, segments, nil
}

// corpusPrefix builds the [id][index] key prefix.
func corpusPrefix(id uint32, idx byte) []byte {
	p := make([]byte, 0, 5)
	p = binary.BigEndian.AppendUint32(p, id)
	return append(p, idx)
}

// tripleKey encodes a triple's SPO key, interning its long terms in
// S, P, O order.
func (s *Store) tripleKey(id uint32, t rdf.Triple) []byte {
	key := corpusPrefix(id, idxSPO)
	for _, term := range [3]string{t.S, t.P, t.O} {
		key = appendTerm(key, term, s.dict)
	}
	return key
}

// IngestTriples adds triples to a triples corpus (creating it if
// needed), deduplicating against pending writes and every committed
// segment — re-ingesting an identical corpus is a no-op. It returns
// the number of new triples accepted. Writes stay in the memtable
// until Flush.
//
// The dedup runs per chunk of ingestChunk triples, cut where the
// cancellation checkpoint falls (the first chunk is one shorter), so a
// cancelled ingest keeps every chunk before the checkpoint. A chunk's
// keys are encoded in input order, then sorted, and each
// committed segment probed once for all of them (segment.probeSorted),
// so a block is read at most once per segment per chunk. A probe error
// adds nothing from its chunk.
func (s *Store) IngestTriples(ctx context.Context, name string, triples []rdf.Triple) (int, error) {
	c, err := s.CreateCorpus(name, KindTriples)
	if err != nil {
		return 0, err
	}
	_, span := obs.StartSpan(ctx, "store.ingest")
	defer span.Finish()
	span.SetAttr("corpus", name)
	span.SetAttr("kind", string(KindTriples))
	added := span.Counter("triples_added")
	dups := span.Counter("dup_skipped")
	var compared, blocks int64
	defer func() {
		span.Counter("keys_compared").Add(compared)
		span.Counter("blocks_read").Add(blocks)
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	termsBefore := s.dict.len()
	n := 0
	// Every return path, the cancelled and the failed one included, can
	// leave keys in the memtable that a later flush commits, so the
	// generation moves whenever one was added.
	defer func() {
		if n > 0 {
			s.gen[c.ID]++
		}
	}()
	var (
		keys   [][]byte // SPO key per triple of the chunk
		stored []bool   // key found in a committed segment
		probe  [][]byte // sorted keys still to look up
		order  []int    // chunk position of each probe key
		found  []bool
	)
	for lo := 0; lo < len(triples); {
		if lo > 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		// The chunk ends at the next checkpoint: the next index i with
		// i%ingestChunk == ingestChunk-1.
		hi := min(len(triples), ((lo+1)/ingestChunk+1)*ingestChunk-1)
		keys, stored, order = keys[:0], stored[:0], order[:0]
		for i, t := range triples[lo:hi] {
			key := s.tripleKey(c.ID, t)
			keys = append(keys, key)
			stored = append(stored, false)
			// A pending key was absent from every segment when it was
			// added, and no segment has been committed since.
			if _, ok := s.mem[string(key)]; !ok {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
		probe = probe[:0]
		for _, i := range order {
			probe = append(probe, keys[i])
		}
		found = slices.Grow(found[:0], len(probe))[:len(probe)]
		clear(found)
		for _, seg := range s.segs {
			if len(probe) == 0 {
				break
			}
			k, err := seg.probeSorted(probe, found, &compared)
			blocks += int64(k)
			if err != nil {
				return n, err
			}
			// Keys are unique across segments: drop the ones found here.
			j := 0
			for p, i := range order {
				if found[p] {
					stored[i], found[p] = true, false
					continue
				}
				probe[j], order[j] = probe[p], i
				j++
			}
			probe, order = probe[:j], order[:j]
		}
		for i, key := range keys {
			if _, ok := s.mem[string(key)]; ok || stored[i] {
				dups.Inc()
				continue
			}
			s.mem[string(key)] = nil
			added.Inc()
			n++
		}
		lo = hi
	}
	span.Count("terms_interned", int64(s.dict.len()-termsBefore))
	return n, nil
}

// ingestChunk is the stride of IngestTriples' dedup batches: the
// cancellation-checkpoint stride of scans, so an ingest checks ctx
// where it always has.
const ingestChunk = scanCheckpointEvery

// IngestLog appends lines to a log corpus (creating it if needed).
// Log corpora keep duplicates and ingest order; each line gets the
// next sequence number. Writes stay in the memtable until Flush.
func (s *Store) IngestLog(ctx context.Context, name string, lines []string) (int, error) {
	c, err := s.CreateCorpus(name, KindLog)
	if err != nil {
		return 0, err
	}
	_, span := obs.StartSpan(ctx, "store.ingest")
	defer span.Finish()
	span.SetAttr("corpus", name)
	span.SetAttr("kind", string(KindLog))

	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.logSeq[c.ID]
	prefix := corpusPrefix(c.ID, idxLog)
	for i, line := range lines {
		if i%scanCheckpointEvery == scanCheckpointEvery-1 {
			if err := ctx.Err(); err != nil {
				s.logSeq[c.ID] = seq
				span.Count("log_lines_added", int64(i))
				return i, err
			}
		}
		key := binary.BigEndian.AppendUint64(append([]byte(nil), prefix...), seq)
		s.mem[string(key)] = []byte(line)
		seq++
	}
	s.logSeq[c.ID] = seq
	span.Count("log_lines_added", int64(len(lines)))
	return len(lines), nil
}

// Flush commits the memtable: pending dictionary terms are appended
// and synced first (so no committed segment can reference an
// unpersisted handle), then the records are written as one sorted
// segment and atomically renamed into place. Flush is the commit
// point; an empty memtable is a no-op.
func (s *Store) Flush(ctx context.Context) error {
	_, span := obs.StartSpan(ctx, "store.flush")
	defer span.Finish()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if len(s.mem) == 0 {
		return s.dict.flush()
	}
	if err := s.dict.flush(); err != nil {
		return err
	}
	recs := make([]record, 0, len(s.mem))
	var bytes int64
	for k, v := range s.mem {
		recs = append(recs, record{key: []byte(k), val: v})
		bytes += int64(len(k) + len(v))
	}
	sortRecords(recs)
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.seg", s.nextSeg))
	if err := writeSegment(path, recs); err != nil {
		return err
	}
	seg, err := openSegment(path)
	if err != nil {
		return err
	}
	s.nextSeg++
	s.segs = append(s.segs, seg)
	s.mem = map[string][]byte{}
	span.Count("records_flushed", int64(len(recs)))
	span.Count("bytes_written", bytes)
	span.Count("segments_total", int64(len(s.segs)))
	return nil
}

// Compact flushes and then merges every segment into one, dropping
// nothing (keys are unique across segments by construction; equal keys
// keep the newest value as a safety net). The merged segment is
// committed before the old ones are deleted, so a crash mid-compaction
// leaves either the old set or the new set, never less.
func (s *Store) Compact(ctx context.Context) error {
	if err := s.Flush(ctx); err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "store.compact")
	defer span.Finish()

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) <= 1 {
		return nil
	}
	var compared int64
	var recs []record
	// Newest-first so the first occurrence of a key wins, then dedup.
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		err := seg.scanPrefix(nil, &compared, func() error { return ctx.Err() }, func(key, val []byte) bool {
			recs = append(recs, record{key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
			return true
		})
		if err != nil {
			return err
		}
	}
	sortRecords(recs)
	dedup := recs[:0]
	for i, r := range recs {
		if i > 0 && string(recs[i-1].key) == string(r.key) {
			continue
		}
		dedup = append(dedup, r)
	}
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.seg", s.nextSeg))
	if err := writeSegment(path, dedup); err != nil {
		return err
	}
	merged, err := openSegment(path)
	if err != nil {
		return err
	}
	s.nextSeg++
	old := s.segs
	s.segs = []*segment{merged}
	for _, seg := range old {
		seg.close()
		os.Remove(seg.path)
	}
	span.Count("keys_compared", compared)
	span.Count("keys_merged", int64(len(recs)))
	span.Count("dup_keys_dropped", int64(len(recs)-len(dedup)))
	span.Count("records_flushed", int64(len(dedup)))
	span.Count("segments_merged", int64(len(old)))
	return nil
}

// LogLines returns every line of a log corpus in ingest order. Pending
// writes are flushed first, so the result always reflects the full
// ingested log.
func (s *Store) LogLines(ctx context.Context, name string) ([]string, error) {
	c, err := s.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Kind != KindLog {
		return nil, fmt.Errorf("store: corpus %q is kind %q, want %q: %w", name, c.Kind, KindLog, ErrWrongKind)
	}
	if err := s.Flush(ctx); err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "store.scan")
	defer span.Finish()
	span.SetAttr("corpus", name)
	span.SetAttr("index", "log")

	s.mu.RLock()
	defer s.mu.RUnlock()
	prefix := corpusPrefix(c.ID, idxLog)
	type entry struct {
		seq  uint64
		line string
	}
	var entries []entry
	var compared int64
	checkpoint := func() error { return ctx.Err() }
	for _, seg := range s.segs {
		span.Counter("segments_scanned").Inc()
		err := seg.scanPrefix(prefix, &compared, checkpoint, func(key, val []byte) bool {
			entries = append(entries, entry{binary.BigEndian.Uint64(key[len(prefix):]), string(val)})
			return true
		})
		if err != nil {
			span.Counter("keys_compared").Add(compared)
			return nil, err
		}
	}
	span.Counter("keys_compared").Add(compared)
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.line
	}
	return out, nil
}

// Stats summarizes the store.
func (s *Store) StoreStats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Corpora:     len(s.corpora),
		Segments:    len(s.segs),
		Terms:       s.dict.len(),
		PendingKeys: len(s.mem),
	}
	for _, seg := range s.segs {
		st.SegmentBytes += segHeaderSize + int64(seg.dataLen)
	}
	for _, c := range s.corpora {
		n, _, err := s.entriesLocked(c, nil)
		if err != nil {
			return st, err
		}
		if c.Kind == KindTriples {
			st.Triples += n
		} else {
			st.LogLines += n
		}
	}
	return st, nil
}

// Verify re-validates every committed structure beyond the CRCs that
// open checks. It walks every record of every segment and returns a
// *CorruptError when
//   - a segment's keys are not strictly increasing, the order that
//     probeSorted and every range scan rely on;
//   - an SPO key has the wrong width or a term that does not decode;
//   - an SPO key occurs in two segments: ingest dedups against every
//     segment, so TermIDs and StoreStats count each key once.
//
// Keys under other tags, such as the POS and OSP keys of stores written
// when a triple was stored three times, are order-checked and otherwise
// ignored. It is the deep check behind `rwdstore verify`.
func (s *Store) Verify(ctx context.Context) error {
	if err := s.Flush(ctx); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, seg := range s.segs {
		if err := s.verifySegment(ctx, seg, s.segs[:i]); err != nil {
			return err
		}
	}
	return nil
}

// verifySegment runs Verify's checks on seg, probing the earlier
// segments for its SPO keys in sorted batches of scanCheckpointEvery.
func (s *Store) verifySegment(ctx context.Context, seg *segment, earlier []*segment) error {
	var (
		prev  []byte
		batch [][]byte
		derr  error
	)
	corrupt := func(reason string) bool {
		derr = &CorruptError{Path: seg.path, Reason: reason}
		return false
	}
	probe := func() bool {
		found := make([]bool, len(batch))
		for _, e := range earlier {
			if _, err := e.probeSorted(batch, found, nil); err != nil {
				derr = err
				return false
			}
			if i := slices.Index(found, true); i >= 0 {
				return corrupt(fmt.Sprintf("triple key %x is also in %s", batch[i], e.path))
			}
		}
		batch = batch[:0]
		return true
	}
	n := 0
	err := seg.scanPrefix(nil, nil, func() error { return ctx.Err() }, func(key, _ []byte) bool {
		if n > 0 && bytes.Compare(prev, key) >= 0 {
			return corrupt(fmt.Sprintf("record %d does not sort after the record before it", n))
		}
		n++
		prev = append(prev[:0], key...)
		if len(key) < keyBase || key[keyBase-1] != idxSPO {
			return true
		}
		if err := checkTripleKey(key); err != nil {
			return corrupt(err.Error())
		}
		for i := 0; i < 3; i++ {
			if _, err := decodeTerm(key[keyBase+i*encodedTermSize:], s.dict); err != nil {
				return corrupt(err.Error())
			}
		}
		batch = append(batch, bytes.Clone(key))
		return len(batch) < scanCheckpointEvery || probe()
	})
	if err == nil && derr == nil && len(batch) > 0 {
		probe()
	}
	if err != nil {
		return err
	}
	return derr
}
