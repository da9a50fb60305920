package profile

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs/recorder"
)

// Config is empty: the engine has no settings. It stays only so that
// existing New(Config{}) calls keep compiling.
type Config struct{}

// The sliding window spans windowBuckets ring buckets of bucketWidth
// each: 60s in 10 buckets of 6s.
const (
	bucketWidth   = 6 * time.Second
	windowBuckets = 10
	windowSpan    = bucketWidth * windowBuckets
)

// key identifies one profiled series: the trace op (root span name with
// "http." trimmed) and the engine that did the work ("" when none ran,
// e.g. cache hits).
type key struct{ op, engine string }

// counterAgg is the distribution of one cost counter within a profile.
type counterAgg struct {
	sum, max int64
	sketch   *Sketch
}

// prof is the mutable per-(op, engine) profile: one duration sketch over
// every status, a request count per status, and per-counter
// distributions. It appears twice per key — once per live ring bucket
// and once in the lifetime aggregate.
type prof struct {
	dur      *Sketch
	statuses map[string]uint64
	counters map[string]*counterAgg
}

func newProf() *prof {
	return &prof{dur: &Sketch{}, statuses: map[string]uint64{}, counters: map[string]*counterAgg{}}
}

func (p *prof) observe(status string, durMS float64, counters map[string]int64) {
	p.dur.Observe(durMS)
	p.statuses[status]++
	for name, v := range counters {
		c := p.counters[name]
		if c == nil {
			c = &counterAgg{sketch: &Sketch{}}
			p.counters[name] = c
		}
		c.sum += v
		if v > c.max {
			c.max = v
		}
		c.sketch.Observe(float64(v))
	}
}

// merge folds other into p (used when the snapshot collapses the live
// ring buckets into one window view).
func (p *prof) merge(other *prof) {
	p.dur.Merge(other.dur)
	for status, n := range other.statuses {
		p.statuses[status] += n
	}
	for name, oc := range other.counters {
		c := p.counters[name]
		if c == nil {
			c = &counterAgg{sketch: &Sketch{}}
			p.counters[name] = c
		}
		c.sum += oc.sum
		if oc.max > c.max {
			c.max = oc.max
		}
		c.sketch.Merge(oc.sketch)
	}
}

// bucket is one slot of the sliding-window ring.
type bucket struct {
	start    time.Time // aligned bucket start; zero = never used
	profiles map[key]*prof
}

// Exemplar links a quantile band of a profile back to a concrete trace
// in the flight recorder (GET /v1/traces/{id}).
type Exemplar struct {
	// Band is the duration quantile band the trace fell in when it was
	// observed: "le_p50", "p50_p90", "p90_p99", or "ge_p99".
	Band       string    `json:"band"`
	TraceID    string    `json:"trace_id"`
	DurationMS float64   `json:"duration_ms"`
	Start      time.Time `json:"start"`
}

// exemplar bands, slowest last.
var bandNames = [4]string{"le_p50", "p50_p90", "p90_p99", "ge_p99"}

// Engine is the live workload-profile aggregator. All methods are safe
// for concurrent use.
type Engine struct {
	mu       sync.Mutex
	ring     [windowBuckets]bucket
	life     map[key]*prof
	exemplar map[key]*[4]Exemplar
	observed int64
	lastSeen time.Time // max trace End() observed
}

// New builds an empty Engine.
func New(Config) *Engine {
	return &Engine{life: map[key]*prof{}, exemplar: map[key]*[4]Exemplar{}}
}

// Observe folds one finished trace into the profiles. The trace is
// bucketed on its own completion time (Start + Duration), not the wall
// clock, so replaying the NDJSON log through a fresh engine reproduces
// the live windows exactly.
func (e *Engine) Observe(t *recorder.Trace) {
	if t == nil || t.Op == "" {
		return
	}
	end := t.End()
	k := key{op: t.Op, engine: recorder.TraceEngine(t)}
	counters := recorder.TraceCounters(t.Root)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.observed++
	if end.After(e.lastSeen) {
		e.lastSeen = end
	}

	lp := e.life[k]
	if lp == nil {
		lp = newProf()
		e.life[k] = lp
	}
	lp.observe(t.Status, t.DurationMS, counters)
	e.ringProfLocked(end, k).observe(t.Status, t.DurationMS, counters)
	e.exemplarLocked(k, lp, t)
}

// isError reports whether a status string is a 4xx or 5xx.
func isError(status string) bool {
	return len(status) == 3 && (status[0] == '4' || status[0] == '5')
}

// isTimeout reports whether a status is one of the service's deadline
// statuses: 408 (client context canceled/expired) or 504 (server
// deadline exceeded).
func isTimeout(status string) bool {
	return status == "408" || status == "504"
}

// ringProfLocked returns key k's profile in the ring bucket covering an
// observation at time at, resetting the slot when it last held an older
// window period.
func (e *Engine) ringProfLocked(at time.Time, k key) *prof {
	aligned := at.Truncate(bucketWidth)
	slot := int((aligned.UnixNano() / int64(bucketWidth)) % windowBuckets)
	if slot < 0 {
		slot += windowBuckets
	}
	b := &e.ring[slot]
	if !b.start.Equal(aligned) {
		b.start = aligned
		b.profiles = map[key]*prof{}
	}
	p := b.profiles[k]
	if p == nil {
		p = newProf()
		b.profiles[k] = p
	}
	return p
}

// exemplarLocked files t into its duration quantile band (computed
// against the key's lifetime duration sketch), keeping the most recent
// trace per band.
func (e *Engine) exemplarLocked(k key, lp *prof, t *recorder.Trace) {
	p50, p90, p99 := lp.dur.Quantile(0.50), lp.dur.Quantile(0.90), lp.dur.Quantile(0.99)
	band := 0
	switch d := t.DurationMS; {
	case d >= p99:
		band = 3
	case d >= p90:
		band = 2
	case d >= p50:
		band = 1
	}
	ex := e.exemplar[k]
	if ex == nil {
		ex = &[4]Exemplar{}
		e.exemplar[k] = ex
	}
	ex[band] = Exemplar{Band: bandNames[band], TraceID: t.TraceID, DurationMS: t.DurationMS, Start: t.Start}
}

// LastSeen returns the latest trace completion time observed — the
// "now" an offline replay snapshots at so its windows match what the
// live engine reported at that instant.
func (e *Engine) LastSeen() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastSeen
}

// Observed returns the number of traces folded in.
func (e *Engine) Observed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observed
}

// Replay builds a fresh engine from an on-disk trace history (oldest
// first, as recorder.ReadDir returns): the offline half of the live
// surface — `rwdtrace stats -trace-dir` replays through the exact code
// the server runs, so history and live windows agree by construction.
func Replay(traces []*recorder.Trace) *Engine {
	e := New(Config{})
	for _, t := range traces {
		e.Observe(t)
	}
	return e
}

// ---- snapshots ----

// Filter restricts a Snapshot. Zero value = everything.
type Filter struct {
	// Op keeps only profiles with this exact op ("" keeps all).
	Op string
	// Engine keeps only profiles with this engine label; "-" matches
	// the empty engine (no engine ran, e.g. cache hits); "" keeps all.
	Engine string
}

func (f Filter) match(k key) bool {
	if f.Op != "" && f.Op != k.op {
		return false
	}
	switch f.Engine {
	case "":
		return true
	case "-":
		return k.engine == ""
	default:
		return f.Engine == k.engine
	}
}

// DistStats summarizes one duration or counter distribution. Quantiles
// carry the sketch's RelError bound; Min/Max/Mean/Sum are exact.
type DistStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func distStats(s *Sketch) DistStats {
	return DistStats{
		Count: s.Count(),
		Sum:   s.Sum(),
		Mean:  s.Mean(),
		Min:   s.Min(),
		Max:   s.Max(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// StatusCount is the request count of one status within a profile.
type StatusCount struct {
	Status string `json:"status"`
	Count  uint64 `json:"count"`
}

// CounterProfile is the distribution of one cost counter over a
// profile's traces.
type CounterProfile struct {
	Name string    `json:"name"`
	Sum  int64     `json:"sum"`
	Max  int64     `json:"max"`
	Dist DistStats `json:"dist"`
}

// OpProfile is one (op, engine) row of a snapshot: request and error
// accounting, the duration distribution over every status, the
// per-status breakdown, the per-counter distributions, and (lifetime
// rows only) exemplar trace ids per duration quantile band.
type OpProfile struct {
	Op          string           `json:"op"`
	Engine      string           `json:"engine,omitempty"`
	Requests    uint64           `json:"requests"`
	Errors      uint64           `json:"errors"`
	Timeouts    uint64           `json:"timeouts"`
	ErrorRate   float64          `json:"error_rate"`
	TimeoutRate float64          `json:"timeout_rate"`
	DurationMS  DistStats        `json:"duration_ms"`
	Statuses    []StatusCount    `json:"statuses"`
	Counters    []CounterProfile `json:"counters,omitempty"`
	Exemplars   []Exemplar       `json:"exemplars,omitempty"`
}

// Snapshot is the full JSON view served by GET /v1/stats. Field order is
// deterministic (structs and sorted slices throughout), so snapshots of
// identical engine states are byte-identical.
type Snapshot struct {
	SchemaVersion  int         `json:"schema_version"`
	GeneratedAt    time.Time   `json:"generated_at"`
	WindowSeconds  float64     `json:"window_seconds"`
	SketchRelError float64     `json:"sketch_rel_error"`
	Observed       int64       `json:"observed"`
	Window         []OpProfile `json:"window,omitempty"`
	Lifetime       []OpProfile `json:"lifetime,omitempty"`
}

// SnapshotSchemaVersion identifies the /v1/stats payload shape. Version
// 2 dropped version 1's models, anomalies and anomalies_total.
const SnapshotSchemaVersion = 2

// WindowLive, WindowLifetime and WindowAll are the accepted window
// selectors of Snapshot and the /v1/stats `window` query parameter.
const (
	WindowLive     = "live"
	WindowLifetime = "lifetime"
	WindowAll      = "all"
)

// Snapshot renders the engine state as of now. window selects which
// profile sets to include (WindowLive, WindowLifetime, or WindowAll;
// "" means WindowAll). Live windows are evaluated against now: ring
// buckets older than the window span are excluded, so a replayed
// engine snapshotted at its LastSeen reproduces what the live engine
// reported at that instant.
func (e *Engine) Snapshot(now time.Time, window string, f Filter) *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()

	snap := &Snapshot{
		SchemaVersion:  SnapshotSchemaVersion,
		GeneratedAt:    now,
		WindowSeconds:  windowSpan.Seconds(),
		SketchRelError: RelError,
		Observed:       e.observed,
	}
	if window == "" {
		window = WindowAll
	}
	if window == WindowLive || window == WindowAll {
		merged := map[key]*prof{}
		for i := range e.ring {
			b := &e.ring[i]
			if b.start.IsZero() || b.start.After(now) || now.Sub(b.start) >= windowSpan {
				continue
			}
			for k, p := range b.profiles {
				m := merged[k]
				if m == nil {
					m = newProf()
					merged[k] = m
				}
				m.merge(p)
			}
		}
		snap.Window = e.profilesLocked(merged, f, false)
	}
	if window == WindowLifetime || window == WindowAll {
		snap.Lifetime = e.profilesLocked(e.life, f, true)
	}
	return snap
}

// profilesLocked renders a profile map as sorted OpProfile rows.
func (e *Engine) profilesLocked(profiles map[key]*prof, f Filter, exemplars bool) []OpProfile {
	keys := make([]key, 0, len(profiles))
	for k := range profiles {
		if f.match(k) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return keys[i].engine < keys[j].engine
	})
	out := make([]OpProfile, 0, len(keys))
	for _, k := range keys {
		p := profiles[k]
		row := OpProfile{Op: k.op, Engine: k.engine, DurationMS: distStats(p.dur)}
		statuses := make([]string, 0, len(p.statuses))
		for status := range p.statuses {
			statuses = append(statuses, status)
		}
		sort.Strings(statuses)
		for _, status := range statuses {
			n := p.statuses[status]
			row.Requests += n
			if isError(status) {
				row.Errors += n
			}
			if isTimeout(status) {
				row.Timeouts += n
			}
			row.Statuses = append(row.Statuses, StatusCount{Status: status, Count: n})
		}
		if row.Requests > 0 {
			row.ErrorRate = float64(row.Errors) / float64(row.Requests)
			row.TimeoutRate = float64(row.Timeouts) / float64(row.Requests)
		}
		names := make([]string, 0, len(p.counters))
		for name := range p.counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := p.counters[name]
			row.Counters = append(row.Counters, CounterProfile{
				Name: name, Sum: c.sum, Max: c.max, Dist: distStats(c.sketch),
			})
		}
		if exemplars {
			if ex := e.exemplar[k]; ex != nil {
				for _, x := range ex {
					if x.TraceID != "" {
						row.Exemplars = append(row.Exemplars, x)
					}
				}
			}
		}
		out = append(out, row)
	}
	return out
}
