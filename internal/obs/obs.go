// Package obs is the observability layer of the repository: a
// context-carried span tracer with per-span cost accounting.
//
// The paper's central empirical move is instrumenting real workloads
// (850M queries, ~120 analytical tests each); obs turns our own
// decision procedures into the same kind of measurable artifact. A
// span records where the time of a request went (determinization vs.
// product search vs. merge), and its cost counters record how big the
// intermediate objects grew (subset states expanded, product states
// visited, antichain entries pruned) — the quantities that the PSPACE
// complexity bounds of Section 4.2 are actually about.
//
// Design constraints, in order:
//
//  1. Disabled tracing must be almost free. Every entry point is
//     nil-safe: when no span is in the context, FromContext returns a
//     nil *Span, StartSpan returns the context unchanged, and every
//     method on a nil *Span or nil *Counter is a constant-time no-op
//     with no allocation. Hot loops hoist the counter lookup out of
//     the loop (c := span.Counter("x"); … c.Inc()), so the disabled
//     path costs one nil check per iteration
//     (BenchmarkTraceDisabledOverhead bounds it at < 5%).
//  2. Enabled tracing must be safe under the sharded pipeline:
//     children may be attached and counters bumped from many
//     goroutines concurrently (per-shard analyzers), so the span's
//     child/attr lists are mutex-guarded and counters are atomics.
//  3. The span tree must be exportable both as JSON (the service's
//     explain mode) and as an indented text dump (the CLIs' -trace
//     flag).
package obs

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer creates root spans and receives every finished span. The zero
// value is usable; fields may only be set before the first StartRoot.
type Tracer struct {
	// OnFinish, when non-nil, observes every finished span (the service
	// uses it to feed span-duration histograms and cost counters into
	// the metrics registry). It may be called concurrently.
	OnFinish func(*Span)
}

// traceIDs seeds process-unique trace ids; the high bits come from the
// process start time so ids from consecutive runs do not collide in
// aggregated logs.
var traceIDs = func() *atomic.Uint64 {
	var v atomic.Uint64
	v.Store(uint64(time.Now().UnixNano()) << 16)
	return &v
}()

// StartRoot begins a new trace: a root span with a fresh trace id,
// placed into the returned context so that StartSpan calls downstream
// attach to it.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{
		tracer:  t,
		name:    name,
		traceID: traceIDs.Add(1),
		start:   time.Now(),
	}
	return ContextWithSpan(ctx, s), s
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key, Value string
}

// Counter is a per-span atomic cost counter. All methods are safe on a
// nil receiver, which is what the disabled path hands out.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Span is one timed operation in a trace. All methods are safe on a
// nil receiver; a nil *Span is the disabled-tracing fast path.
type Span struct {
	tracer  *Tracer
	parent  *Span
	name    string
	traceID uint64
	start   time.Time

	mu       sync.Mutex
	attrs    []Attr
	counters []*Counter
	children []*Span
	dur      time.Duration
	finished bool
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Parent returns the span's parent, nil for a root span (and nil on a
// nil receiver). The flight recorder uses it to capture exactly the
// finished root spans.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// TraceID renders the trace id shared by every span of the tree as 16
// lowercase hex digits, as fmt's %016x would ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	const digits = "0123456789abcdef"
	var b [16]byte
	for i, id := len(b)-1, s.traceID; i >= 0; i, id = i-1, id>>4 {
		b[i] = digits[id&0xf]
	}
	return string(b[:])
}

// Duration returns the recorded duration for a finished span, or the
// running elapsed time for a live one (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return s.dur
	}
	return time.Since(s.start)
}

// SetAttr attaches (or overwrites) a key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, value})
}

// Counter returns the span's cost counter with the given name,
// creating it on first use. Hot loops call this once before the loop
// and Inc/Add inside it. On a nil span it returns a nil *Counter whose
// methods are no-ops.
func (s *Span) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	s.counters = append(s.counters, c)
	return c
}

// Count adds delta to the named counter (convenience for cold paths).
func (s *Span) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.Counter(name).Add(delta)
}

// newChild creates and attaches a child span.
func (s *Span) newChild(name string) *Span {
	c := &Span{
		tracer:  s.tracer,
		parent:  s,
		name:    name,
		traceID: s.traceID,
		start:   time.Now(),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish records the span's duration (monotonic, via the runtime's
// monotonic clock reading embedded in start) and reports it to the
// tracer's OnFinish hook. Finish is idempotent; on a nil span it is a
// no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.tracer != nil && s.tracer.OnFinish != nil {
		s.tracer.OnFinish(s)
	}
}

// Counters returns a name→value snapshot of the span's cost counters.
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.counters))
	for _, c := range s.counters {
		out[c.name] = c.Value()
	}
	return out
}

// Node is the exportable form of a span tree: what the service returns
// for "explain": true and what the CLIs dump under -trace.
type Node struct {
	Name       string            `json:"name"`
	TraceID    string            `json:"trace_id,omitempty"` // root only
	StartUS    int64             `json:"start_us,omitempty"` // wall-clock start, unix microseconds
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Children   []*Node           `json:"children,omitempty"`
}

// Tree exports the span and its descendants. Live (unfinished) spans
// report their elapsed time so far. Nil spans export as nil.
func (s *Span) Tree() *Node {
	if s == nil {
		return nil
	}
	n := &Node{
		Name:       s.name,
		StartUS:    s.start.UnixMicro(),
		DurationMS: float64(s.Duration().Microseconds()) / 1000,
		Counters:   s.Counters(),
	}
	if s.parent == nil {
		n.TraceID = s.TraceID()
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.Tree())
	}
	return n
}

// Walk visits n and every descendant in depth-first pre-order. It is
// the shared traversal of the trace consumers (flight-recorder counter
// sums, workload-profile extraction, rwdtrace's headline counters).
func (n *Node) Walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// WriteTree renders the node as an indented text tree, one span per
// line: name, duration, counters, attrs.
func WriteTree(w io.Writer, n *Node) error {
	return writeTree(w, n, 0)
}

// DumpTree writes the node's text tree to stderr when dest is "-" and to
// the file dest otherwise — the -trace flag of the command-line tools. A
// failure is reported on stderr, never to the caller.
func DumpTree(dest string, n *Node) {
	var err error
	if dest == "-" {
		err = WriteTree(os.Stderr, n)
	} else {
		var f *os.File
		if f, err = os.Create(dest); err == nil {
			err = WriteTree(f, n)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
	}
}

func writeTree(w io.Writer, n *Node, depth int) error {
	if n == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Name)
	fmt.Fprintf(&b, "  %.3fms", n.DurationMS)
	if n.TraceID != "" {
		fmt.Fprintf(&b, "  trace=%s", n.TraceID)
	}
	for _, k := range sortedKeys(n.Counters) {
		fmt.Fprintf(&b, "  %s=%d", k, n.Counters[k])
	}
	for _, k := range sortedAttrKeys(n.Attrs) {
		fmt.Fprintf(&b, "  %s=%q", k, n.Attrs[k])
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeTree(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAttrKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- context plumbing ----

type ctxKey struct{}

// ContextWithSpan returns a context carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil (the disabled
// fast path) when there is none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan begins a child of the context's span. When the context
// carries no span — tracing disabled — it returns ctx unchanged and a
// nil span, without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.newChild(name)
	return ContextWithSpan(ctx, s), s
}
