// Package recorder is the always-on trace flight recorder: every
// finished root span tree is captured into a bounded in-memory ring
// (and, optionally, an on-disk NDJSON log), turning the tracing layer
// from a per-request debugging aid into a continuously collected
// dataset about the deployed system.
//
// The paper's thesis is that theoretical cost measures — states
// expanded, derivative steps, fixpoint rounds — explain real-world
// performance. The spans of internal/obs record exactly those counters
// on every request, but before the recorder the evidence evaporated
// with the response: a span tree was visible only to a client that
// passed "explain": true. The recorder retains the trees, so "the 20 slowest containment calls of
// the last hour and the counters that blew up" is a query
// (GET /v1/traces?sort=slowest), not a reconstruction.
//
// Design constraints:
//
//   - Bounded. The ring holds at most Capacity traces and at most
//     MaxBytes of exported trace JSON; the oldest traces are evicted
//     first. A single trace larger than the whole byte budget is
//     dropped, not recorded. The accounting never lies:
//     recorded == retained + evicted, and dropped is counted
//     separately (TestRingInvariants pins this).
//   - Lock-cheap. Record appends under one short mutex hold; the span
//     tree export and JSON sizing happen before the lock is taken.
//   - Restart-tolerant. With a Log attached every recorded trace is
//     also appended to an NDJSON file (size-rotated); the reader
//     tolerates a torn final line, so a crashed or killed server
//     still leaves a readable trace history for rwdtrace.
package recorder

import (
	"encoding/json"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Trace is one retained root span tree with the summary fields the
// query API filters and sorts on. It is the NDJSON line format of the
// on-disk log and the element type of the /v1/traces response.
type Trace struct {
	TraceID    string    `json:"trace_id"`
	Op         string    `json:"op"`               // root span name, "http." prefix trimmed
	Status     string    `json:"status,omitempty"` // HTTP status code of the response, when known
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Bytes      int64     `json:"bytes"` // size of the exported tree JSON
	Root       *obs.Node `json:"root"`
}

// StatusAttr is the root-span attribute the service sets to the HTTP
// status code of the response; FromSpan lifts it into Trace.Status.
const StatusAttr = "status"

// FromSpan exports a finished root span as a Trace. The tree is
// snapshotted at call time; counters bumped later by detached engine
// goroutines are not reflected.
func FromSpan(s *obs.Span) *Trace {
	root := s.Tree()
	if root == nil {
		return nil
	}
	t := &Trace{
		TraceID:    s.TraceID(),
		Op:         strings.TrimPrefix(s.Name(), "http."),
		Status:     root.Attrs[StatusAttr],
		Start:      s.Start(),
		DurationMS: root.DurationMS,
		Root:       root,
	}
	if raw, err := json.Marshal(root); err == nil {
		t.Bytes = int64(len(raw))
	}
	return t
}

// CounterSum sums the named cost counter over a whole span tree
// (rwdtrace `top -by <counter>` and the query API's counter views).
func CounterSum(n *obs.Node, name string) int64 {
	if n == nil {
		return 0
	}
	total := n.Counters[name]
	for _, c := range n.Children {
		total += CounterSum(c, name)
	}
	return total
}

// TraceCounters sums every cost counter over the whole span tree,
// returning name -> total. The workload-profile engine feeds these into
// its per-counter distributions; rwdtrace uses the key set to validate
// `top -by` names.
func TraceCounters(n *obs.Node) map[string]int64 {
	if n == nil {
		return nil
	}
	out := map[string]int64{}
	n.Walk(func(n *obs.Node) {
		for name, v := range n.Counters {
			out[name] += v
		}
	})
	return out
}

// EngineAttr is the span attribute naming the decision engine that did
// the work (e.g. "antichain" on automata.contains spans).
const EngineAttr = "engine"

// TraceEngine returns the trace's engine: the first EngineAttr value
// found in pre-order, or "" (e.g. a cache hit that never ran an engine).
func TraceEngine(t *Trace) string {
	if t == nil {
		return ""
	}
	engine := ""
	t.Root.Walk(func(n *obs.Node) {
		if engine == "" && n.Attrs[EngineAttr] != "" {
			engine = n.Attrs[EngineAttr]
		}
	})
	return engine
}

// End returns the trace's completion instant, Start + DurationMS — the
// timestamp the workload-profile engine buckets on, so an offline replay
// of the NDJSON log lands every trace in the same window as the live
// engine did.
func (t *Trace) End() time.Time {
	return t.Start.Add(time.Duration(t.DurationMS * float64(time.Millisecond)))
}

// Config parameterizes a Ring. The zero value is usable: every field
// has a documented default.
type Config struct {
	// Capacity is the maximum retained trace count; <= 0 means 1024.
	Capacity int
	// MaxBytes is the budget on retained exported-tree JSON bytes;
	// <= 0 means 32 MiB.
	MaxBytes int64
	// Log, when non-nil, additionally appends every recorded trace to
	// the on-disk NDJSON trace log.
	Log *Log
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 32 << 20
	}
	return c
}

// Stats is the ring's accounting. Recorded == Retained + Evicted holds
// at every instant; Dropped counts traces never admitted (larger than
// the whole byte budget).
type Stats struct {
	Recorded int64 `json:"recorded"`
	Retained int64 `json:"retained"`
	Evicted  int64 `json:"evicted"`
	Dropped  int64 `json:"dropped"`
	Bytes    int64 `json:"bytes"`
	// LogErrors counts failed NDJSON appends (disk full, rotation
	// failure); the in-memory ring keeps recording regardless.
	LogErrors int64 `json:"log_errors,omitempty"`
}

// Ring is the bounded in-memory flight-recorder buffer. All methods
// are safe for concurrent use; a nil *Ring is a disabled recorder on
// which every method is a no-op.
type Ring struct {
	cfg Config

	mu       sync.Mutex
	traces   []*Trace // oldest first
	bytes    int64
	recorded int64
	evicted  int64
	dropped  int64
	logErrs  int64
}

// New builds a Ring from cfg.
func New(cfg Config) *Ring {
	return &Ring{cfg: cfg.withDefaults()}
}

// Record admits a trace, evicting the oldest entries until both the
// capacity and the byte budget hold. A nil ring, nil trace, or a trace
// larger than the whole byte budget records nothing (the last counts
// as dropped).
func (r *Ring) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	if t.Bytes > r.cfg.MaxBytes {
		r.mu.Lock()
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	r.recorded++
	r.traces = append(r.traces, t)
	r.bytes += t.Bytes
	for len(r.traces) > r.cfg.Capacity || r.bytes > r.cfg.MaxBytes {
		r.bytes -= r.traces[0].Bytes
		r.traces[0] = nil
		r.traces = r.traces[1:]
		r.evicted++
	}
	// Reclaim the evicted prefix once it dominates the backing array.
	if cap(r.traces) > 2*r.cfg.Capacity && len(r.traces) <= r.cfg.Capacity {
		r.traces = append(make([]*Trace, 0, r.cfg.Capacity), r.traces...)
	}
	r.mu.Unlock()

	if r.cfg.Log != nil {
		if err := r.cfg.Log.Append(t); err != nil {
			r.mu.Lock()
			r.logErrs++
			r.mu.Unlock()
		}
	}
}

// Snapshot returns the retained traces, oldest first. The slice is a
// copy; the traces themselves are shared and immutable after Record.
func (r *Ring) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.traces...)
}

// Get returns the retained trace with the given id, or nil.
func (r *Ring) Get(traceID string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.traces) - 1; i >= 0; i-- {
		if r.traces[i].TraceID == traceID {
			return r.traces[i]
		}
	}
	return nil
}

// Stats returns the ring's accounting.
func (r *Ring) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Recorded:  r.recorded,
		Retained:  int64(len(r.traces)),
		Evicted:   r.evicted,
		Dropped:   r.dropped,
		Bytes:     r.bytes,
		LogErrors: r.logErrs,
	}
}
