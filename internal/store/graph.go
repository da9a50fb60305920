package store

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// StoredGraph is a read view of one triples corpus: one scan of the
// corpus's SPO key range across the committed segments, as Triples or
// as the term ids of rdf.TermIDSource. It is what rdf.ComputeStats
// reads. The view reflects the committed state at construction plus
// any segments flushed afterwards; Store.Graph flushes first so the
// view starts complete.
//
// Triples cannot return an error, so the view is bound to a context:
// scans checkpoint cancellation, and the first error (context or I/O)
// is latched and reported by Err — callers run the analysis, then
// check Err once. After an error, scans return empty results rather
// than partial ones being mistaken for complete.
type StoredGraph struct {
	st  *Store
	c   Corpus
	ctx context.Context

	// scan-cost counters, attached to the span that was current when
	// the view was built (nil-safe when tracing is off).
	segsScanned *obs.Counter
	keysCmp     *obs.Counter

	mu  sync.Mutex
	err error
}

// Graph opens a read view of a triples corpus, flushing pending
// writes first so the view is complete.
func (s *Store) Graph(ctx context.Context, name string) (*StoredGraph, error) {
	c, err := s.triplesCorpus(name)
	if err != nil {
		return nil, err
	}
	return s.graph(ctx, c)
}

// triplesCorpus looks up name and requires a triples corpus.
func (s *Store) triplesCorpus(name string) (Corpus, error) {
	c, err := s.Lookup(name)
	if err != nil {
		return Corpus{}, err
	}
	if c.Kind != KindTriples {
		return Corpus{}, fmt.Errorf("store: corpus %q is kind %q, want %q: %w", name, c.Kind, KindTriples, ErrWrongKind)
	}
	return c, nil
}

func (s *Store) graph(ctx context.Context, c Corpus) (*StoredGraph, error) {
	if err := s.Flush(ctx); err != nil {
		return nil, err
	}
	span := obs.FromContext(ctx)
	return &StoredGraph{
		st:          s,
		c:           c,
		ctx:         ctx,
		segsScanned: span.Counter("segments_scanned"),
		keysCmp:     span.Counter("keys_compared"),
	}, nil
}

// statsMemoCorpora bounds the RDFStats memo: it keeps the stats of at
// most this many corpora and evicts the least recently used.
const statsMemoCorpora = 16

// statsMemoEntry is one corpus's memoized stats and the generation
// they were computed at.
type statsMemoEntry struct {
	gen   uint64
	stats *rdf.Stats
}

// RDFStats returns the Section 7.1 statistics (rdf.ComputeStats) of a
// triples corpus, memoized per commit generation. IngestTriples bumps a
// corpus's generation whenever it adds a key, so stats memoized at the
// current generation cover every triple ingested so far. The
// generation is read before the flush that makes the view complete: a
// concurrent ingest can then only make the memoized stats newer than
// their generation, never older. A failed or cancelled computation is
// not memoized. The result is shared between callers and must not be
// modified.
func (s *Store) RDFStats(ctx context.Context, name string) (*rdf.Stats, error) {
	c, err := s.triplesCorpus(name)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "store.stats")
	defer span.Finish()
	span.SetAttr("corpus", name)
	hits, misses := span.Counter("memo_hits"), span.Counter("memo_misses")

	s.mu.RLock()
	gen := s.gen[c.ID]
	s.mu.RUnlock()
	key := strconv.FormatUint(uint64(c.ID), 10)
	if v, ok := s.statsMemo.Get(key); ok {
		if m := v.(statsMemoEntry); m.gen == gen {
			hits.Inc()
			return m.stats, nil
		}
	}
	misses.Inc()
	sg, err := s.graph(ctx, c)
	if err != nil {
		return nil, err
	}
	stats := rdf.ComputeStats(sg)
	if err := sg.Err(); err != nil {
		return nil, err
	}
	if ctx.Err() == nil {
		s.statsMemo.Put(key, statsMemoEntry{gen: gen, stats: stats})
	}
	return stats, nil
}

// Err returns the first error any scan hit (context cancellation,
// I/O), or nil. Analyses check it once after running.
func (sg *StoredGraph) Err() error {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.err
}

func (sg *StoredGraph) fail(err error) {
	sg.mu.Lock()
	if sg.err == nil {
		sg.err = err
	}
	sg.mu.Unlock()
}

// scan runs fn over every SPO key of the corpus, across all segments.
// An error from fn means the key did not decode: it is latched as a
// CorruptError naming the segment. Nothing is scanned after a latched
// error.
func (sg *StoredGraph) scan(fn func(key []byte) error) {
	if sg.Err() != nil {
		return
	}
	prefix := corpusPrefix(sg.c.ID, idxSPO)
	var compared int64
	checkpoint := func() error { return sg.ctx.Err() }

	sg.st.mu.RLock()
	segs := sg.st.segs
	sg.st.mu.RUnlock()
	for _, seg := range segs {
		sg.segsScanned.Inc()
		var keyErr error
		err := seg.scanPrefix(prefix, &compared, checkpoint, func(key, _ []byte) bool {
			keyErr = fn(key)
			return keyErr == nil
		})
		if err == nil && keyErr != nil {
			err = &CorruptError{Path: seg.path, Reason: keyErr.Error()}
		}
		if err != nil {
			sg.keysCmp.Add(compared)
			sg.fail(err)
			return
		}
	}
	sg.keysCmp.Add(compared)
}

// checkTripleKey rejects an SPO key that does not hold exactly three
// encoded terms.
func checkTripleKey(key []byte) error {
	if len(key) != keyBase+3*encodedTermSize {
		return fmt.Errorf("store: triple key is %d bytes, want %d", len(key), keyBase+3*encodedTermSize)
	}
	return nil
}

// keyBase returns the length of the [corpus 4][index 1] prefix.
const keyBase = 5

// decodeTriple decodes an SPO key back into its triple.
func (sg *StoredGraph) decodeTriple(key []byte) (rdf.Triple, error) {
	if err := checkTripleKey(key); err != nil {
		return rdf.Triple{}, err
	}
	var terms [3]string
	for i := range terms {
		var err error
		if terms[i], err = decodeTerm(key[keyBase+i*encodedTermSize:], sg.st.dict); err != nil {
			return rdf.Triple{}, err
		}
	}
	return rdf.Triple{S: terms[0], P: terms[1], O: terms[2]}, nil
}

// Triples returns all triples, in SPO key order.
func (sg *StoredGraph) Triples() []rdf.Triple {
	var out []rdf.Triple
	sg.scan(func(key []byte) error {
		t, err := sg.decodeTriple(key)
		out = append(out, t)
		return err
	})
	if sg.Err() != nil {
		return nil
	}
	return out
}

var _ rdf.TermIDSource = (*StoredGraph)(nil)

// TermIDs implements rdf.TermIDSource with one SPO scan that builds no
// term string: each distinct 10-byte encoded term gets the next id.
// The codec preserves equality exactly (see checkTerm), so two
// positions share an id exactly when they hold the same term. Each
// distinct encoding is checked once, when it first appears, and a key
// that fails is latched as a CorruptError, as in Triples.
func (sg *StoredGraph) TermIDs() ([][3]uint32, int) {
	ids := map[[encodedTermSize]byte]uint32{}
	var out [][3]uint32
	sg.scan(func(key []byte) error {
		if err := checkTripleKey(key); err != nil {
			return err
		}
		var t [3]uint32
		for i := range t {
			off := keyBase + i*encodedTermSize
			enc := [encodedTermSize]byte(key[off : off+encodedTermSize])
			id, ok := ids[enc]
			if !ok {
				if _, err := checkTerm(key[off:], sg.st.dict); err != nil {
					return err
				}
				id = uint32(len(ids))
				ids[enc] = id
			}
			t[i] = id
		}
		out = append(out, t)
		return nil
	})
	if sg.Err() != nil {
		return nil, 0
	}
	return out, len(ids)
}
