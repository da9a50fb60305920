// Package store is the persistent corpus layer of the repository: a
// single-directory, crash-recoverable store for RDF triple corpora and
// ingested query logs. It is the ROADMAP's "persistent encoded-term
// store" — the refactor that turns every analysis of the paper's
// Section 7 practical studies (degree power laws, predicate overlap
// ratios) and the SHARQL-style log study into ingest-once /
// re-analyze-many workloads instead of regenerate-per-run ones.
//
// Layout of a store directory:
//
//	terms.dat      append-only term dictionary (CRC-framed records,
//	               truncated-tail tolerant)
//	corpora.json   corpus registry (name → id, kind), atomic rewrite
//	seg-N.seg      immutable sorted segment files (CRC-checked header,
//	               written to a temp file and renamed, so a crash can
//	               never leave a half-written committed segment)
//
// Each triple is stored once, under its SPO key: the one reader of a
// triples corpus, the Section 7.1 statistics (Store.RDFStats), makes
// one pass over the corpus's SPO range, and ingest dedups against the
// same keys. Log corpora are keyed by a big-endian sequence number, so
// iteration order is ingest order.
//
// The commit point is Flush (and Close, which flushes): triples and
// log lines accepted before a successful Flush survive any crash;
// writes since the last Flush are lost wholesale, never torn.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Term codec. Every term is encoded into exactly encodedTermSize bytes
// so that keys built by concatenating encoded terms are fixed-width and
// byte-lexicographic order doubles as range-scan order:
//
//	[kind 1B][payload 8B][length-or-zero 1B]
//
// Short terms (≤ 8 bytes) are inlined: kind kindInline, payload the
// zero-padded term bytes, final byte the true length. Zero-padding plus
// the length suffix preserves lexicographic term order among inline
// terms — including terms containing NUL bytes — because the pad byte
// 0x00 is the minimum byte and equal padded payloads are disambiguated
// by length (a strict prefix sorts first, exactly as in string order).
//
// Longer terms get an 8-byte FNV-1a handle into the term dictionary:
// kind kindHash, payload the big-endian handle, final byte 0. Handles
// preserve equality (the dictionary resolves collisions at intern time
// by deterministic re-hashing) but not order; range scans only ever
// group by equal prefixes, so grouping — not global term order — is
// what the keys need.
const (
	kindInline byte = 0x01
	kindHash   byte = 0x02

	inlineMax       = 8
	encodedTermSize = 10
)

// appendTerm encodes term into dst, interning long terms in dict.
func appendTerm(dst []byte, term string, dict *dict) []byte {
	if len(term) <= inlineMax {
		dst = append(dst, kindInline)
		dst = append(dst, term...)
		for i := len(term); i < inlineMax; i++ {
			dst = append(dst, 0)
		}
		return append(dst, byte(len(term)))
	}
	h := dict.intern(term)
	dst = append(dst, kindHash)
	dst = binary.BigEndian.AppendUint64(dst, h)
	return append(dst, 0)
}

// decodeTerm decodes one encoded term, resolving handles through dict.
// It rejects corrupt bytes with an error instead of panicking: the
// segment reader calls it on data whose CRC already passed, but the
// fuzz target and the verify path call it on arbitrary bytes.
func decodeTerm(b []byte, dict *dict) (string, error) {
	hashed, err := checkTerm(b, dict)
	if err != nil || b[0] == kindHash {
		return hashed, err
	}
	return string(b[1 : 1+b[9]]), nil
}

// checkTerm applies every check decodeTerm makes to one encoded term
// without building an inline term's string. A hashed term's string is
// the dictionary's own, so it is returned at no cost. An encoding that
// passes names exactly one term, and no other encoding names it: the
// inline form is canonical once its padding and length are checked,
// and the dictionary maps handles to terms one to one.
func checkTerm(b []byte, dict *dict) (hashed string, err error) {
	if len(b) < encodedTermSize {
		return "", fmt.Errorf("store: encoded term truncated: %d bytes", len(b))
	}
	switch b[0] {
	case kindInline:
		n := int(b[9])
		if n > inlineMax {
			return "", fmt.Errorf("store: inline term length %d out of range", n)
		}
		for i := 1 + n; i < 1+inlineMax; i++ {
			if b[i] != 0 {
				return "", fmt.Errorf("store: inline term has nonzero padding")
			}
		}
		return "", nil
	case kindHash:
		if b[9] != 0 {
			return "", fmt.Errorf("store: hashed term has nonzero length byte")
		}
		h := binary.BigEndian.Uint64(b[1:9])
		term, ok := dict.lookup(h)
		if !ok {
			return "", fmt.Errorf("store: term handle %016x not in dictionary", h)
		}
		return term, nil
	default:
		return "", fmt.Errorf("store: unknown term kind 0x%02x", b[0])
	}
}

// fnvHash is the base handle: FNV-1a over the term bytes. Collisions
// are resolved deterministically by intern (see dict.intern).
func fnvHash(term string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(term))
	return h.Sum64()
}

// rehash derives the i-th probe handle for a colliding term: FNV-1a
// over the term bytes plus a separator and the probe counter. The
// sequence depends only on the term and i, so an intern order that
// replays identically (same segments, same dictionary log) assigns
// identical handles.
func rehash(term string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(term))
	h.Write([]byte{0xff, byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	return h.Sum64()
}
