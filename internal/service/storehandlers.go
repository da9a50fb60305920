package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// tripleRows converts the wire shape ([s, p, o] rows) to rdf.Triples.
func tripleRows(rows [][3]string) []rdf.Triple {
	out := make([]rdf.Triple, len(rows))
	for i, r := range rows {
		out[i] = rdf.Triple{S: r[0], P: r[1], O: r[2]}
	}
	return out
}

// Store endpoints. The server runs with or without a persistent store;
// without one (rwdserve started without -store-dir) the corpus
// endpoints answer 503 so clients can tell "not configured" from "not
// found".

// AttachStore wires a persistent store into the server and registers
// the rwd_store_* gauges. Call before serving; the corpus endpoints
// and /v1/analyze?corpus= are 503 until a store is attached.
func (s *Server) AttachStore(st *store.Store) {
	s.store = st
	stat := func(f func(store.Stats) float64) func() float64 {
		return func() float64 {
			stats, err := st.StoreStats()
			if err != nil {
				return -1
			}
			return f(stats)
		}
	}
	s.reg.GaugeFunc("rwd_store_corpora",
		"Corpora registered in the attached store.",
		stat(func(v store.Stats) float64 { return float64(v.Corpora) }))
	s.reg.GaugeFunc("rwd_store_segments",
		"Committed segment files in the attached store.",
		stat(func(v store.Stats) float64 { return float64(v.Segments) }))
	s.reg.GaugeFunc("rwd_store_terms",
		"Terms interned in the store's dictionary.",
		stat(func(v store.Stats) float64 { return float64(v.Terms) }))
	s.reg.GaugeFunc("rwd_store_triples",
		"Triples committed across all triples corpora.",
		stat(func(v store.Stats) float64 { return float64(v.Triples) }))
	s.reg.GaugeFunc("rwd_store_log_lines",
		"Log lines committed across all log corpora.",
		stat(func(v store.Stats) float64 { return float64(v.LogLines) }))
	s.reg.GaugeFunc("rwd_store_pending_keys",
		"Memtable keys not yet flushed to a segment.",
		stat(func(v store.Stats) float64 { return float64(v.PendingKeys) }))
	s.reg.GaugeFunc("rwd_store_segment_bytes",
		"Total bytes of committed segment files.",
		stat(func(v store.Stats) float64 { return float64(v.SegmentBytes) }))
}

var errNoStoreAttached = &apiError{http.StatusServiceUnavailable,
	"no store configured (start rwdserve with -store-dir)"}

// storeError maps a store error to its HTTP status: an unknown corpus
// (404) and a request for the other kind of an existing corpus (409)
// are the client's mistakes; anything else — corruption, I/O — is the
// server's (500).
func storeError(err error) *apiError {
	switch {
	case errors.Is(err, store.ErrUnknownCorpus):
		return &apiError{http.StatusNotFound, err.Error()}
	case errors.Is(err, store.ErrWrongKind):
		return &apiError{http.StatusConflict, err.Error()}
	case errors.Is(err, store.ErrBadCorpusName):
		return &apiError{http.StatusBadRequest, err.Error()}
	}
	return &apiError{http.StatusInternalServerError, err.Error()}
}

// ---- GET /v1/corpora ----

type corporaResponse struct {
	Corpora []store.CorpusStats `json:"corpora"`
}

func (s *Server) handleCorporaList(ctx context.Context, req *request) (any, *apiError) {
	if s.store == nil {
		return nil, errNoStoreAttached
	}
	list, err := s.store.Corpora(s.arm(ctx, req))
	if err != nil {
		return nil, storeError(err)
	}
	if list == nil {
		list = []store.CorpusStats{}
	}
	return corporaResponse{Corpora: list}, nil
}

// ---- POST /v1/corpora ----

type corpusIngestRequest struct {
	envelope
	Name string `json:"name"`
	// Kind is "triples" or "log"; optional when exactly one of Triples
	// and Queries says which it is.
	Kind    string      `json:"kind,omitempty"`
	Triples [][3]string `json:"triples,omitempty"` // [s, p, o] rows
	Queries []string    `json:"queries,omitempty"` // raw query lines
}

type corpusIngestResponse struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Added     int     `json:"added"`
	Skipped   int     `json:"skipped"` // duplicates deduplicated at ingest
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleCorporaIngest adds triples or log lines to a named corpus and
// flushes, so a 200 means the data is committed (Flush is the store's
// commit point).
func (s *Server) handleCorporaIngest(ctx context.Context, req *request) (any, *apiError) {
	if s.store == nil {
		return nil, errNoStoreAttached
	}
	var in corpusIngestRequest
	if err := json.Unmarshal(req.body, &in); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	req.env = in.envelope
	if in.Name == "" {
		return nil, errBadRequest("name is required")
	}
	if len(in.Triples) > 0 && len(in.Queries) > 0 {
		return nil, errBadRequest("a corpus holds triples or queries, not both")
	}
	kind := store.CorpusKind(in.Kind)
	switch {
	case in.Kind == "" && len(in.Triples) > 0:
		kind = store.KindTriples
	case in.Kind == "" && len(in.Queries) > 0:
		kind = store.KindLog
	case in.Kind == "":
		return nil, errBadRequest("kind is required when the request carries no data")
	case kind != store.KindTriples && kind != store.KindLog:
		return nil, errBadRequest("unknown kind %q (want triples or log)", in.Kind)
	}
	if kind == store.KindTriples && len(in.Queries) > 0 {
		return nil, errBadRequest("kind=triples but the request carries queries")
	}
	if kind == store.KindLog && len(in.Triples) > 0 {
		return nil, errBadRequest("kind=log but the request carries triples")
	}

	start := time.Now()
	ctx = s.arm(ctx, req)
	return runEngine(ctx, req, func(ctx context.Context) (any, *apiError) {
		var added, offered int
		var err error
		if kind == store.KindTriples {
			offered = len(in.Triples)
			added, err = s.store.IngestTriples(ctx, in.Name, tripleRows(in.Triples))
		} else {
			offered = len(in.Queries)
			added, err = s.store.IngestLog(ctx, in.Name, in.Queries)
		}
		if err == nil {
			err = s.store.Flush(ctx)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctxError(ctx.Err())
			}
			return nil, storeError(err)
		}
		return corpusIngestResponse{
			Name:      in.Name,
			Kind:      string(kind),
			Added:     added,
			Skipped:   offered - added,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	})
}
