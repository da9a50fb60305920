package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/recorder"
)

// apiError is an error with an HTTP status. Handlers return it instead of
// writing to the response directly so the middleware stays the single
// place that renders errors, counts them, and logs them.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// ctxError maps a context error to its HTTP status. A deadline expiry is
// the server refusing to work past the requested budget (504); a
// cancellation means the client went away before the verdict (408,
// counted separately so timeout metrics stay honest under load tests
// that abandon connections).
func ctxError(err error) *apiError {
	if errors.Is(err, context.Canceled) {
		return &apiError{http.StatusRequestTimeout, "client closed request"}
	}
	return &apiError{http.StatusGatewayTimeout, "deadline exceeded"}
}

// engineError maps an error returned by an engine: if the request context
// has ended, the context outcome wins (the engine was likely interrupted
// mid-decision); anything else is an internal error.
func engineError(ctx context.Context, err error) *apiError {
	if ctx.Err() != nil {
		return ctxError(ctx.Err())
	}
	return &apiError{http.StatusInternalServerError, err.Error()}
}

// envelope is the shared request envelope: the fields that ride beside
// every endpoint's specific body. JSON bodies carry them inline; NDJSON
// streaming bodies are raw query logs, so the envelope moves to the URL
// query string. The middleware parses it exactly once per request.
type envelope struct {
	Explain    bool `json:"explain"`
	DeadlineMS int  `json:"deadline_ms"`
}

// request is what the middleware hands every handler: the size-capped
// body, the envelope (parsed once), whether the body is a line stream
// rather than a JSON document, the query parameters (the envelope and
// option carrier in stream mode), and the admission-slot guard.
type request struct {
	env    envelope
	body   []byte
	ndjson bool
	query  url.Values
	slot   *slotGuard
}

// handlerFunc is an endpoint body: it gets the deadline-bearing context
// and the parsed request, and returns either a JSON-marshalable response
// or an apiError.
type handlerFunc func(ctx context.Context, req *request) (any, *apiError)

// slotGuard owns one admission-semaphore slot. The HTTP goroutine holds
// it for the life of the request; if the request ends (deadline, client
// gone) while an engine goroutine is still computing — engines without
// cancellation checkpoints run to completion — the slot stays held until
// that goroutine exits. Sustained timeout traffic therefore can never
// exceed the configured in-flight cap: a server full of detached engines
// sheds new load with 429 instead of stacking unbounded background work.
type slotGuard struct {
	sem      chan struct{}
	detached *atomic.Int64 // server-wide gauge of engines outliving their request

	mu          sync.Mutex
	handlerDone bool
	engines     int // engine goroutines currently running
	released    bool
}

// engineStarted registers an engine goroutine about to run. It is called
// on the request goroutine, before the goroutine spawns, so the count
// can never be observed low.
func (g *slotGuard) engineStarted() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.engines++
	g.mu.Unlock()
}

// engineExited releases the slot if this was the last engine of a
// request whose handler already returned.
func (g *slotGuard) engineExited() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.engines--
	if g.handlerDone {
		g.detached.Add(-1)
	}
	g.maybeReleaseLocked()
	g.mu.Unlock()
}

// handlerReturned marks the HTTP goroutine done with the request; any
// engines still running are now detached and inherit the slot.
func (g *slotGuard) handlerReturned() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.handlerDone = true
	if g.engines > 0 {
		g.detached.Add(int64(g.engines))
	}
	g.maybeReleaseLocked()
	g.mu.Unlock()
}

func (g *slotGuard) maybeReleaseLocked() {
	if !g.released && g.handlerDone && g.engines == 0 {
		g.released = true
		<-g.sem
	}
}

// endpoint wraps h in the shared middleware stack: root span (with the
// trace id echoed in the X-Trace-Id response header), admission control,
// request-size cap, one envelope parse, per-request deadline, response
// rendering (with the span tree merged in for "explain": true), and the
// shared tail of finishRequest.
func (s *Server) endpoint(name string, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := http.StatusOK

		// Every request — including the ones admission control or the
		// body cap rejects — runs under a root span: its id goes out in
		// the X-Trace-Id header so any client error report can be joined
		// to the recorded trace, and its finish, after the response is
		// written, records the request's latency and status whether or
		// not the client asked for explain mode.
		rctx, span := s.tracer.StartRoot(r.Context(), "http."+name)
		w.Header().Set("X-Trace-Id", span.TraceID())
		defer func() { s.finishRequest(r, name, span, code) }()

		// Admission control: shed load before reading the body so an
		// overloaded server spends no work on requests it will not serve.
		select {
		case s.sem <- struct{}{}:
		default:
			code = http.StatusTooManyRequests
			writeJSON(w, code, map[string]string{"error": "server overloaded, retry later"})
			return
		}
		slot := &slotGuard{sem: s.sem, detached: &s.detached}
		defer slot.handlerReturned()

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
				writeJSON(w, code, map[string]string{
					"error": fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
				return
			}
			code = http.StatusBadRequest
			writeJSON(w, code, map[string]string{"error": "reading body: " + err.Error()})
			return
		}

		req := &request{body: body, slot: slot}
		req.ndjson = streamingBody(r)
		req.query = r.URL.Query()
		req.env = parseEnvelope(req)

		ctx, cancel := context.WithTimeout(rctx, s.deadline(req.env))
		defer cancel()

		out, aerr := h(ctx, req)
		if aerr != nil {
			code = aerr.status
			writeJSON(w, code, map[string]string{"error": aerr.msg})
			return
		}
		if req.env.Explain {
			// The tree is exported from the live root span, so it carries
			// the status now; its duration runs up to this point.
			span.SetAttr(recorder.StatusAttr, strconv.Itoa(code))
			out = withTrace(out, span.Tree())
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// finishRequest is the shared tail of endpoint and traceEndpoint: it
// stamps the HTTP status on the root span, finishes it — the one place a
// request's latency and status are recorded (Tracer.OnFinish in New) —
// and writes the access-log line. It runs after the response is
// written; net/http ends the response only once the handler returns, so
// a client that has read the whole body always finds its trace in
// /v1/traces/{id}.
func (s *Server) finishRequest(r *http.Request, name string, span *obs.Span, code int) {
	span.SetAttr(recorder.StatusAttr, strconv.Itoa(code))
	span.Finish()
	// path and remote are attacker-controlled: %q-quote them so a
	// crafted URL cannot inject fake key=value pairs or newlines into
	// the log stream.
	s.log.Printf("level=info method=%s path=%q endpoint=%s code=%d dur_ms=%.2f remote=%q trace=%s",
		r.Method, r.URL.Path, name, code, float64(span.Duration().Microseconds())/1000, r.RemoteAddr, span.TraceID())
}

// streamingBody reports whether the request body is an NDJSON / plain
// line stream (a raw query log) rather than a JSON document.
func streamingBody(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(strings.ToLower(ct)) {
	case "application/x-ndjson", "application/ndjson", "text/plain":
		return true
	}
	return false
}

// parseEnvelope extracts the shared envelope exactly once per request —
// the handlers receive it instead of re-unmarshaling the body for each
// shared field, which batch-sized bodies make measurably expensive. A
// body that fails to parse gets the zero envelope; the handler reports
// the parse error itself. Stream-mode requests carry the envelope in the
// query string (?deadline_ms=…&explain=true).
func parseEnvelope(req *request) envelope {
	var env envelope
	if req.ndjson {
		if v, err := strconv.Atoi(req.query.Get("deadline_ms")); err == nil {
			env.DeadlineMS = v
		}
		env.Explain = req.query.Get("explain") == "true"
		return env
	}
	_ = json.Unmarshal(req.body, &env)
	return env
}

// withTrace splices the span tree into the marshaled response object
// under a "trace" key, marshaling the response once. Responses are
// structs or maps that marshal to JSON objects; anything else (or a
// marshal failure) returns the response untouched rather than losing
// the verdict.
func withTrace(out any, tree *obs.Node) any {
	raw, err := json.Marshal(out)
	if err != nil || raw[0] != '{' {
		return out
	}
	t, err := json.Marshal(tree)
	if err != nil {
		return out
	}
	sep := ","
	if len(raw) == 2 { // "{}": no field to separate from
		sep = ""
	}
	merged := append(raw[:len(raw)-1], sep+`"trace":`...)
	merged = append(merged, t...)
	return json.RawMessage(append(merged, '}'))
}

// deadline applies the default to the envelope's deadline and clamps to
// the configured maximum.
func (s *Server) deadline(env envelope) time.Duration {
	d := s.cfg.DefaultDeadline
	if env.DeadlineMS > 0 {
		d = time.Duration(env.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// runEngine runs f on its own goroutine and waits for either its result
// or ctx expiry. The decision engines with cancellation checkpoints
// (regex / k-ORE / DTD containment, the sharded analyzer) return promptly
// on their own; for engines without checkpoints this still guarantees the
// HTTP deadline. An engine goroutine that outlives its request keeps the
// admission slot (via req.slot) until it exits, so detached engines count
// against the in-flight cap instead of silently exceeding it. The
// engine exits before its result is sent, so a handler that answers
// holds no running engine and releases the slot when it returns.
func runEngine(ctx context.Context, req *request, f runFunc) (any, *apiError) {
	type result struct {
		v    any
		aerr *apiError
	}
	done := make(chan result, 1)
	req.slot.engineStarted()
	go func() {
		v, aerr := f(ctx)
		req.slot.engineExited()
		done <- result{v, aerr}
	}()
	select {
	case <-ctx.Done():
		return nil, ctxError(ctx.Err())
	case res := <-done:
		if res.aerr != nil {
			return nil, res.aerr
		}
		return res.v, nil
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}
