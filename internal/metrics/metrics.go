// Package metrics is a lightweight, dependency-free counter / gauge /
// histogram registry rendered in the Prometheus text exposition format.
// It covers exactly what the rwdserve observability surface needs:
// labeled counters (span cost by span and counter), labeled gauges and
// gauge callbacks (build info; in-flight requests, cache occupancy), and
// labeled latency histograms with cumulative buckets. All metric operations are safe for concurrent
// use and lock-free on the hot path (atomics only).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them on demand.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	}
	return "gauge"
}

// family is one named metric with a fixed label schema and any number of
// children (one per observed label-value combination).
type family struct {
	name    string
	help    string
	kind    familyKind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	order    []string
	fn       func() float64 // GaugeFunc and CounterFunc families only
}

// child is the concrete time series for one label-value combination.
type child struct {
	labelValues []string
	val         atomic.Int64 // counters and gauges

	// histogram state: bucketCounts[i] counts observations <= buckets[i];
	// the last slot is the +Inf bucket.
	bucketCounts []atomic.Int64
	sumBits      atomic.Uint64 // float64 bits of the observation sum
	count        atomic.Int64
}

func (r *Registry) register(name, help string, kind familyKind, buckets []float64, labels ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("metrics: duplicate registration of " + name)
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		buckets:  buckets,
		children: map[string]*child{},
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			c.bucketCounts = make([]atomic.Int64, len(f.buckets)+1)
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter is a monotonically increasing count.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.c.val.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.c.val.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.c.val.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a new labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, nil, labels...)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.child(values)} }

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.c.val.Store(n) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.c.val.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.c.val.Load() }

// GaugeVec is a gauge family with labels (e.g. a build-info metric whose
// constant value 1 carries its information in the labels).
type GaugeVec struct{ f *family }

// GaugeVec registers a new labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, nil, labels...)}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.child(values)} }

// GaugeFunc registers a gauge whose value is computed by f at scrape time
// (used for values owned elsewhere, e.g. cache occupancy or semaphore
// depth). f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, kindGauge, nil).fn = f
}

// CounterFunc is GaugeFunc for a monotonic count owned elsewhere (e.g.
// cache hits): the family renders with TYPE counter.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, kindCounter, nil).fn = f
}

// Histogram observes a distribution into cumulative buckets.
type Histogram struct {
	c       *child
	buckets []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	// v belongs to every bucket with upper bound >= v; store only the
	// first and cumulate at render time.
	h.c.bucketCounts[i].Add(1)
	h.c.count.Add(1)
	for {
		old := h.c.sumBits.Load()
		if h.c.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a new labeled histogram family with the given
// upper bucket bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, append([]float64(nil), buckets...), labels...)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{v.f.child(values), v.f.buckets}
}

// DefBuckets is a latency bucket ladder (seconds) suited to decision
// procedures that are usually sub-millisecond but occasionally explode.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		if f.fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for _, c := range children {
			if err := f.renderChild(w, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *family) renderChild(w io.Writer, c *child) error {
	switch f.kind {
	case kindHistogram:
		cum := int64(0)
		for i, ub := range f.buckets {
			cum += c.bucketCounts[i].Load()
			ls := labelString(f.labels, c.labelValues, "le", formatFloat(ub))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
				return err
			}
		}
		cum += c.bucketCounts[len(f.buckets)].Load()
		ls := labelString(f.labels, c.labelValues, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
			return err
		}
		base := labelString(f.labels, c.labelValues, "", "")
		sum := math.Float64frombits(c.sumBits.Load())
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, c.count.Load())
		return err
	default:
		ls := labelString(f.labels, c.labelValues, "", "")
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ls, c.val.Load())
		return err
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" label); it returns "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
