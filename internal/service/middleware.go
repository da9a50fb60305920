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
// every endpoint's specific body. Every JSON request type embeds it, so
// the handler's one decode of the body fills it; NDJSON streaming bodies
// are raw query logs, so there the envelope moves to the URL query
// string.
type envelope struct {
	Explain    bool `json:"explain"`
	DeadlineMS int  `json:"deadline_ms"`
}

// request is what the middleware hands every handler: the size-capped
// body and when its read ended, whether the body is a line stream
// rather than a JSON document, the query parameters (the envelope and
// option carrier in stream mode), and the admission-slot guard. The
// handler fills env with its decode and then arms the deadline.
type request struct {
	env    envelope
	body   []byte
	start  time.Time // the end of the body read; the deadline counts from it
	ndjson bool
	query  url.Values
	slot   *slotGuard

	// deadline ends the context arm returns; cancel stops its timer.
	deadline time.Time
	cancel   context.CancelFunc
	// batch is set while /v1/batch runs its items: the batch's envelope
	// governs them, and their own envelope fields are ignored.
	batch bool
}

// handlerFunc is an endpoint body: it gets the root span's context and
// the request, decodes the body with its envelope, arms the deadline
// (Server.arm) for the work the deadline bounds, and returns either a
// JSON-marshalable response or an apiError.
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
// one size-capped body read, response rendering (with the span tree
// merged in for "explain": true), and the shared tail of finishRequest.
// h decodes the envelope with its body and arms the deadline itself.
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

		body, aerr := readBody(w, r, s.cfg.MaxBodyBytes)
		if aerr != nil {
			code = aerr.status
			writeJSON(w, code, map[string]string{"error": aerr.msg})
			return
		}
		req := &request{body: body, start: time.Now(), slot: slot}
		req.ndjson = streamingBody(r)
		req.query = r.URL.Query()
		defer func() {
			if req.cancel != nil {
				req.cancel()
			}
		}()

		out, aerr := h(rctx, req)
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

// readBody reads r's body into one buffer sized from its Content-Length,
// never larger than max+1 bytes whatever the header claims: a declared
// length over max is refused before any read, and a body that outgrows
// its declared length grows the buffer as io.ReadAll would, up to the
// cap. A body over max is a 413.
func readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, *apiError) {
	tooLarge := func() *apiError {
		return &apiError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", max)}
	}
	if r.ContentLength > max {
		return nil, tooLarge()
	}
	size := r.ContentLength
	if size < 0 {
		size = 512 // unknown length: start where io.ReadAll does
	}
	// one byte past the body, so the read that finds EOF needs no growth
	buf := make([]byte, 0, size+1)
	body := http.MaxBytesReader(w, r.Body, max)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, tooLarge()
			}
			return nil, errBadRequest("reading body: %v", err)
		}
	}
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

// queryEnvelope reads a stream-mode request's envelope from its URL
// query string (?deadline_ms=…&explain=true).
func queryEnvelope(q url.Values) envelope {
	var env envelope
	if v, err := strconv.Atoi(q.Get("deadline_ms")); err == nil {
		env.DeadlineMS = v
	}
	env.Explain = q.Get("explain") == "true"
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

// arm bounds ctx by the request's deadline: the end of the body read
// plus the envelope's deadline_ms, defaulted and clamped. A handler arms
// once its decode has filled the envelope, and a decide op only when it
// has a run to bound; the middleware stops the timer when the handler
// returns.
func (s *Server) arm(ctx context.Context, req *request) context.Context {
	req.deadline = req.start.Add(s.deadline(req.env))
	ctx, req.cancel = context.WithDeadline(ctx, req.deadline)
	return ctx
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
