package store

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// StoredGraph is a read view of one triples corpus that satisfies
// rdf.GraphReader, so rdf.ComputeStats and both evaluators run against
// it unchanged. Every lookup shape the evaluators use (S, P, O, SP,
// PO) is one contiguous range scan over the matching index:
//
//	S, SP, SPO → SPO index    P, PO → POS index    O → OSP index
//
// The view reflects the committed state at construction plus any
// segments flushed afterwards; Store.Graph flushes first so the view
// starts complete.
//
// GraphReader methods cannot return errors, so the view is bound to a
// context: scans checkpoint cancellation, and the first error (context
// or I/O) is latched and reported by Err — callers run the analysis,
// then check Err once. After an error, scans return empty results
// rather than partial ones being mistaken for complete.
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

// Graph opens a GraphReader view of a triples corpus, flushing pending
// writes first so the view is complete.
func (s *Store) Graph(ctx context.Context, name string) (*StoredGraph, error) {
	c, err := s.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Kind != KindTriples {
		return nil, fmt.Errorf("store: corpus %q is kind %q, want %q: %w", name, c.Kind, KindTriples, ErrWrongKind)
	}
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

// scan runs fn over every record under the corpus index prefix built
// from the given terms, across all segments. A term that cannot be
// encoded for reading means no key can match. Returns false after a
// latched error.
func (sg *StoredGraph) scan(idx byte, terms []string, fn func(key []byte, prefixLen int) bool) bool {
	if sg.Err() != nil {
		return false
	}
	prefix := corpusPrefix(sg.c.ID, idx)
	for _, t := range terms {
		var ok bool
		prefix, ok = appendTermRead(prefix, t, sg.st.dict)
		if !ok {
			return true // nothing stored can match
		}
	}
	var compared int64
	checkpoint := func() error { return sg.ctx.Err() }

	sg.st.mu.RLock()
	segs := sg.st.segs
	sg.st.mu.RUnlock()
	for _, seg := range segs {
		sg.segsScanned.Inc()
		err := seg.scanPrefix(prefix, &compared, checkpoint, func(key, _ []byte) bool {
			return fn(key, len(prefix))
		})
		if err != nil {
			sg.keysCmp.Add(compared)
			sg.fail(err)
			return false
		}
	}
	sg.keysCmp.Add(compared)
	return true
}

// decode3 decodes the three terms of a triple key starting at off,
// latching a corruption error if decoding fails.
func (sg *StoredGraph) decode3(key []byte, off int) (a, b, c string, ok bool) {
	var err error
	if a, err = decodeTerm(key[off:], sg.st.dict); err == nil {
		if b, err = decodeTerm(key[off+encodedTermSize:], sg.st.dict); err == nil {
			if c, err = decodeTerm(key[off+2*encodedTermSize:], sg.st.dict); err == nil {
				return a, b, c, true
			}
		}
	}
	sg.fail(err)
	return "", "", "", false
}

// keyBase returns the length of the [corpus 4][index 1] prefix.
const keyBase = 5

// Len returns the number of triples.
func (sg *StoredGraph) Len() int {
	n := 0
	sg.scan(idxSPO, nil, func([]byte, int) bool { n++; return true })
	if sg.Err() != nil {
		return 0
	}
	return n
}

// Triples returns all triples, in SPO key order.
func (sg *StoredGraph) Triples() []rdf.Triple {
	var out []rdf.Triple
	sg.scan(idxSPO, nil, func(key []byte, _ int) bool {
		s, p, o, ok := sg.decode3(key, keyBase)
		if !ok {
			return false
		}
		out = append(out, rdf.Triple{S: s, P: p, O: o})
		return true
	})
	if sg.Err() != nil {
		return nil
	}
	return out
}

// Has reports membership via a point lookup on the SPO index.
func (sg *StoredGraph) Has(s, p, o string) bool {
	if sg.Err() != nil {
		return false
	}
	key := corpusPrefix(sg.c.ID, idxSPO)
	var ok bool
	for _, t := range []string{s, p, o} {
		if key, ok = appendTermRead(key, t, sg.st.dict); !ok {
			return false
		}
	}
	var compared int64
	sg.st.mu.RLock()
	segs := sg.st.segs
	sg.st.mu.RUnlock()
	found := false
	for _, seg := range segs {
		sg.segsScanned.Inc()
		_, hit, err := seg.get(key, &compared)
		if err != nil {
			sg.fail(err)
			break
		}
		if hit {
			found = true
			break
		}
	}
	sg.keysCmp.Add(compared)
	return found
}

// distinctFirst collects the distinct leading term of every key in an
// index — the cheap way to enumerate S_G (SPO), P_G (POS), O_G (OSP),
// since keys sharing a leading term are contiguous.
func (sg *StoredGraph) distinctFirst(idx byte) []string {
	var out []string
	var lastEnc []byte
	sg.scan(idx, nil, func(key []byte, _ int) bool {
		enc := key[keyBase : keyBase+encodedTermSize]
		if lastEnc != nil && string(lastEnc) == string(enc) {
			return true
		}
		lastEnc = append(lastEnc[:0], enc...)
		term, err := decodeTerm(enc, sg.st.dict)
		if err != nil {
			sg.fail(err)
			return false
		}
		out = append(out, term)
		return true
	})
	if sg.Err() != nil {
		return nil
	}
	// Contiguity holds per segment, not across segments, and hashed
	// terms do not sort in term order: dedup and sort the small result.
	seen := make(map[string]bool, len(out))
	uniq := out[:0]
	for _, t := range out {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	sort.Strings(uniq)
	return uniq
}

// Subjects returns the set S_G, sorted.
func (sg *StoredGraph) Subjects() []string { return sg.distinctFirst(idxSPO) }

// Predicates returns the set P_G, sorted.
func (sg *StoredGraph) Predicates() []string { return sg.distinctFirst(idxPOS) }

// Objects returns the set O_G, sorted.
func (sg *StoredGraph) Objects() []string { return sg.distinctFirst(idxOSP) }

// Match returns all triples matching the pattern (empty strings are
// wildcards), dispatching to the index whose key order makes the bound
// terms one contiguous prefix.
func (sg *StoredGraph) Match(s, p, o string) []rdf.Triple {
	var out []rdf.Triple
	keep := func(t rdf.Triple) bool {
		if (s == "" || t.S == s) && (p == "" || t.P == p) && (o == "" || t.O == o) {
			out = append(out, t)
		}
		return true
	}
	switch {
	case s != "" && p != "":
		sg.scan(idxSPO, []string{s, p}, func(key []byte, _ int) bool {
			ts, tp, to, ok := sg.decode3(key, keyBase)
			return ok && keep(rdf.Triple{S: ts, P: tp, O: to})
		})
	case p != "" && o != "":
		sg.scan(idxPOS, []string{p, o}, func(key []byte, _ int) bool {
			tp, to, ts, ok := sg.decode3(key, keyBase)
			return ok && keep(rdf.Triple{S: ts, P: tp, O: to})
		})
	case s != "":
		sg.scan(idxSPO, []string{s}, func(key []byte, _ int) bool {
			ts, tp, to, ok := sg.decode3(key, keyBase)
			return ok && keep(rdf.Triple{S: ts, P: tp, O: to})
		})
	case o != "":
		sg.scan(idxOSP, []string{o}, func(key []byte, _ int) bool {
			to, ts, tp, ok := sg.decode3(key, keyBase)
			return ok && keep(rdf.Triple{S: ts, P: tp, O: to})
		})
	case p != "":
		sg.scan(idxPOS, []string{p}, func(key []byte, _ int) bool {
			tp, to, ts, ok := sg.decode3(key, keyBase)
			return ok && keep(rdf.Triple{S: ts, P: tp, O: to})
		})
	default:
		return sg.Triples()
	}
	if sg.Err() != nil {
		return nil
	}
	return out
}

// ObjectsOf returns the objects reachable from s via p (SP range on
// the SPO index).
func (sg *StoredGraph) ObjectsOf(s, p string) []string {
	var out []string
	sg.scan(idxSPO, []string{s, p}, func(key []byte, prefixLen int) bool {
		o, err := decodeTerm(key[prefixLen:], sg.st.dict)
		if err != nil {
			sg.fail(err)
			return false
		}
		out = append(out, o)
		return true
	})
	if sg.Err() != nil {
		return nil
	}
	return out
}

// SubjectsOf returns the subjects reaching o via p (PO range on the
// POS index).
func (sg *StoredGraph) SubjectsOf(p, o string) []string {
	var out []string
	sg.scan(idxPOS, []string{p, o}, func(key []byte, prefixLen int) bool {
		s, err := decodeTerm(key[prefixLen:], sg.st.dict)
		if err != nil {
			sg.fail(err)
			return false
		}
		out = append(out, s)
		return true
	})
	if sg.Err() != nil {
		return nil
	}
	return out
}

// OutEdges returns the triples with subject s (S range on SPO).
func (sg *StoredGraph) OutEdges(s string) []rdf.Triple { return sg.Match(s, "", "") }

// InEdges returns the triples with object o (O range on OSP).
func (sg *StoredGraph) InEdges(o string) []rdf.Triple { return sg.Match("", "", o) }
