package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs/recorder"
)

// Trace query surface: GET /v1/traces filters the flight-recorder ring
// (op=, status=, min_ms=, since=, limit=, sort=slowest|recent), GET
// /v1/traces/{id} returns one tree by the id a client read from its
// X-Trace-Id response header, and format=perfetto renders the selection
// as Chrome trace-event JSON loadable in Perfetto.

// traceEndpoint is the lightweight middleware of the trace query
// endpoints: a root span (counted in rwd_op_duration_seconds but
// excluded from the recorder so reading it never pollutes it), the
// X-Trace-Id header, and the shared tail of finishRequest — but no
// admission gate, body cap, or deadline: the recorder exists to
// diagnose a saturated server, so its reads must not be shed by the
// very saturation under diagnosis.
func (s *Server) traceEndpoint(name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := http.StatusOK
		ctx, span := s.tracer.StartRoot(r.Context(), "http."+name)
		w.Header().Set("X-Trace-Id", span.TraceID())
		if aerr := h(ctx, w, r); aerr != nil {
			code = aerr.status
			writeJSON(w, code, map[string]string{"error": aerr.msg})
		}
		s.finishRequest(r, name, span, code)
	})
}

var errNoRecorder = &apiError{http.StatusServiceUnavailable,
	"trace recorder disabled (rwdserve started with -trace-capacity < 0)"}

// tracesResponse is the JSON shape of GET /v1/traces.
type tracesResponse struct {
	Count  int               `json:"count"`
	Traces []*recorder.Trace `json:"traces"`
	Stats  recorder.Stats    `json:"stats"`
}

func (s *Server) handleTracesQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError {
	if s.flight == nil {
		return errNoRecorder
	}
	q, err := recorder.ParseQuery(r.URL.Query())
	if err != nil {
		return errBadRequest("%v", err)
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "perfetto":
	default:
		return errBadRequest("format: %q (want json or perfetto)", format)
	}
	traces := q.Apply(s.flight.Snapshot(), time.Now())
	if format == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="traces.perfetto.json"`)
		if err := recorder.WritePerfetto(w, traces); err != nil {
			s.log.Printf("level=error endpoint=traces msg=\"perfetto export\" err=%q", err)
		}
		return nil
	}
	if traces == nil {
		traces = []*recorder.Trace{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Count:  len(traces),
		Traces: traces,
		Stats:  s.flight.Stats(),
	})
	return nil
}

func (s *Server) handleTraceGet(ctx context.Context, w http.ResponseWriter, r *http.Request) *apiError {
	if s.flight == nil {
		return errNoRecorder
	}
	id := r.PathValue("id")
	t := s.flight.Get(id)
	if t == nil {
		return &apiError{http.StatusNotFound,
			fmt.Sprintf("trace %q not in the recorder (evicted, or never recorded)", id)}
	}
	writeJSON(w, http.StatusOK, t)
	return nil
}
