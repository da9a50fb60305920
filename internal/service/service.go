// Package service is the production HTTP layer over the repository's
// decision procedures and analysis pipeline. Every capability that was
// previously CLI-only — regex/k-ORE/DTD/JSON-Schema containment
// (Theorems 4.4–4.6), membership, DTD/EDTD validation, schema inference
// (Section 4.2.3), and the SHARQL-style SPARQL log analysis — is exposed
// as a JSON endpoint behind a shared middleware stack.
//
// The decision problems served here are PSPACE-hard (containment) or
// worse, so the server treats every request as potentially adversarial:
//
//   - deadlines: each request runs under a context deadline (default /
//     maximum configurable); the containment engines carry cooperative
//     cancellation checkpoints (automata.ContainsCtx et al.) so a
//     timed-out instance stops burning CPU instead of merely abandoning
//     the response;
//   - admission control: a bounded semaphore sheds load with 429 before
//     work starts;
//   - request-size caps: bodies beyond MaxBodyBytes are rejected with 413;
//   - two bounded caches: the verdict cache holds containment verdicts
//     under canonical renderings of the parsed inputs, so syntactically
//     different but identical requests hit, and inference answers under
//     the algorithm, k and ordered word sample; the compile cache holds
//     compiled membership matchers and DTDs, and aliases from raw
//     containment texts to canonical keys, all under raw request text,
//     so an exact repeat skips parsing and compiling;
//   - observability: every request runs under a root span whose finish
//     is the one place its latency and status are recorded — the
//     rwd_op_duration_seconds{op,status} histogram on GET /metrics
//     (Prometheus text format), the flight recorder behind /v1/traces,
//     and the workload profile behind /v1/stats — plus span, in-flight
//     and cache metrics and structured access logs.
package service

import (
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/obs/recorder"
	"repro/internal/store"
)

// Config parameterizes the server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// MaxInFlight is the admission-control bound on concurrently served
	// requests (the "worker limit"); <= 0 means 2 × GOMAXPROCS.
	MaxInFlight int
	// MaxBodyBytes caps request bodies; <= 0 means 8 MiB.
	MaxBodyBytes int64
	// DefaultDeadline applies when a request carries no deadline_ms;
	// <= 0 means 2s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines; <= 0 means 30s.
	MaxDeadline time.Duration
	// CacheSize is the capacity in entries of each of the two caches,
	// the verdict cache and the compile cache; < 0 disables both, 0
	// means 1024.
	CacheSize int
	// AnalyzeWorkers bounds the worker pool of /v1/analyze;
	// <= 0 means GOMAXPROCS.
	AnalyzeWorkers int
	// TraceCapacity bounds the flight-recorder ring (retained root
	// span trees, queryable via GET /v1/traces); 0 means 1024, < 0
	// disables the recorder entirely.
	TraceCapacity int
	// TraceMaxBytes byte-budgets the flight-recorder ring; <= 0 means
	// 32 MiB.
	TraceMaxBytes int64
	// TraceLog, when non-nil, persists every recorded trace to the
	// on-disk NDJSON trace log (rwdserve -trace-dir).
	TraceLog *recorder.Log
	// Logger receives structured access and error logs; nil means stderr.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 1024
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	if c.AnalyzeWorkers <= 0 {
		c.AnalyzeWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "rwdserve ", log.LstdFlags|log.Lmicroseconds)
	}
	return c
}

// Server is the HTTP service. Construct with New; Handler returns the
// routed middleware stack.
type Server struct {
	cfg Config
	log *log.Logger
	mux *http.ServeMux
	reg *metrics.Registry
	// cache is the verdict cache: containment verdicts under canonical
	// keys and inference answers under inferKey. compiled is the compile cache: membership matchers, compiled
	// DTDs and containment aliases (raw text → canonical key), under raw
	// request text.
	cache    *cache.Cache
	compiled *cache.Cache
	sem      chan struct{}
	tracer   *obs.Tracer
	// flight is the always-on trace flight recorder behind GET
	// /v1/traces; nil when Config.TraceCapacity < 0.
	flight *recorder.Ring
	// profile is the always-on workload-profile engine behind GET
	// /v1/stats: windowed per-(op, engine) statistics with per-status
	// counts, quantile sketches and exemplars over the same
	// finished-trace feed the recorder consumes.
	profile *profile.Engine
	// started anchors the uptime reported by /healthz.
	started time.Time
	// store is the optional persistent corpus store (AttachStore); nil
	// means the corpus endpoints answer 503.
	store *store.Store

	spanSecs *metrics.HistogramVec // span
	spanCost *metrics.CounterVec   // span, counter
	opDur    *metrics.HistogramVec // op, status: rwd_op_duration_seconds

	// detached counts engine goroutines that outlived their request and
	// still hold their admission slot (see slotGuard).
	detached atomic.Int64
}

// New constructs a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		reg:      metrics.NewRegistry(),
		cache:    cache.New(cfg.CacheSize),
		compiled: cache.New(cfg.CacheSize),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		started:  time.Now(),
	}
	s.reg.GaugeFunc("rwdserve_inflight",
		"Requests currently admitted past the admission gate.",
		func() float64 { return float64(len(s.sem)) })
	s.reg.GaugeFunc("rwdserve_detached_engines",
		"Engine goroutines still computing after their request ended; each holds its admission slot until it exits.",
		func() float64 { return float64(s.detached.Load()) })
	s.reg.CounterFunc("rwdserve_cache_hits_total",
		"Verdict-cache hits: containment verdicts and inference answers.", func() float64 { return float64(s.cache.Stats().Hits) })
	s.reg.CounterFunc("rwdserve_cache_misses_total",
		"Verdict-cache misses: containment verdicts and inference answers.", func() float64 { return float64(s.cache.Stats().Misses) })
	s.reg.CounterFunc("rwdserve_cache_evictions_total",
		"Verdict-cache evictions: containment verdicts and inference answers.", func() float64 { return float64(s.cache.Stats().Evictions) })
	s.reg.GaugeFunc("rwdserve_cache_entries",
		"Verdict-cache occupancy: containment verdicts and inference answers.", func() float64 { return float64(s.cache.Stats().Len) })
	// One compile-cache lookup per membership request, per DTD validate
	// request, and per non-explain containment request (its alias probe),
	// for request texts up to maxCompileKey.
	s.reg.CounterFunc("rwdserve_compile_cache_hits_total",
		"Compile-cache hits: membership matchers, compiled DTDs and containment aliases.",
		func() float64 { return float64(s.compiled.Stats().Hits) })
	s.reg.CounterFunc("rwdserve_compile_cache_misses_total",
		"Compile-cache misses, including every containment request with no alias yet.",
		func() float64 { return float64(s.compiled.Stats().Misses) })
	s.reg.CounterFunc("rwdserve_compile_cache_evictions_total",
		"Compile-cache evictions.", func() float64 { return float64(s.compiled.Stats().Evictions) })
	s.reg.GaugeFunc("rwdserve_compile_cache_entries",
		"Compile-cache occupancy.", func() float64 { return float64(s.compiled.Stats().Len) })

	// Span telemetry: every finished span below a request's root feeds a
	// duration histogram, and every span its cost counters, keyed by span
	// name, so the cost of determinization vs. product search vs. shard
	// merge (or store flush vs. compaction) is visible on /metrics even
	// when no client asks for explain mode.
	s.spanSecs = s.reg.HistogramVec("rwd_span_seconds",
		"Durations in seconds of spans below a request's root span, by span name.", metrics.DefBuckets, "span")
	s.spanCost = s.reg.CounterVec("rwd_span_cost_total",
		"Accumulated span cost counters (states expanded, queries ingested, ...), by span name and counter.",
		"span", "counter")

	// The flight recorder retains every finished root span tree in a
	// bounded ring, queryable via GET /v1/traces; the queries' own
	// root spans are excluded so reading the recorder never pollutes it.
	if cfg.TraceCapacity >= 0 {
		s.flight = recorder.New(recorder.Config{
			Capacity: cfg.TraceCapacity,
			MaxBytes: cfg.TraceMaxBytes,
			Log:      cfg.TraceLog,
		})
	}
	// The workload-profile engine aggregates the same finished-trace
	// feed into windowed per-op statistics, quantile sketches and
	// exemplars (GET /v1/stats). Always on, like the recorder.
	s.profile = profile.New(profile.Config{})
	// rwd_op_duration_seconds is the one request histogram: every
	// request, whatever its outcome (429, 413, 504, 408 included), is
	// counted once, at its root span's finish. The per-endpoint request,
	// timeout, client-closed and rejection counts are its _count rows
	// filtered on op and status.
	s.opDur = s.reg.HistogramVec("rwd_op_duration_seconds",
		"Request durations in seconds, from root-span start to the end of the response write, by op and HTTP status.",
		metrics.DefBuckets, "op", "status")
	s.tracer = &obs.Tracer{
		OnFinish: func(sp *obs.Span) {
			for name, v := range sp.Counters() {
				if v != 0 {
					s.spanCost.With(sp.Name(), name).Add(v)
				}
			}
			if sp.Parent() != nil {
				s.spanSecs.With(sp.Name()).Observe(sp.Duration().Seconds())
				return
			}
			tr := recorder.FromSpan(sp)
			status := tr.Status
			if status == "" {
				status = "unknown"
			}
			s.opDur.With(tr.Op, status).Observe(sp.Duration().Seconds())
			// Diagnostic reads (/v1/traces*, /v1/stats) are counted above
			// but kept out of the recorder and the profile, so observing
			// the observability surfaces never pollutes them.
			if !strings.HasPrefix(sp.Name(), "http.trace") && sp.Name() != "http.stats" {
				s.flight.Record(tr)
				s.profile.Observe(tr)
			}
		},
	}
	if s.flight != nil {
		s.reg.CounterFunc("rwd_traces_recorded_total",
			"Root span trees admitted to the flight recorder.",
			func() float64 { return float64(s.flight.Stats().Recorded) })
		s.reg.GaugeFunc("rwd_traces_retained",
			"Root span trees currently held in the flight-recorder ring.",
			func() float64 { return float64(s.flight.Stats().Retained) })
		s.reg.CounterFunc("rwd_traces_evicted_total",
			"Flight-recorder traces evicted to respect the capacity or byte budget.",
			func() float64 { return float64(s.flight.Stats().Evicted) })
		s.reg.CounterFunc("rwd_traces_dropped_total",
			"Traces never admitted because a single tree exceeded the whole byte budget.",
			func() float64 { return float64(s.flight.Stats().Dropped) })
		s.reg.GaugeFunc("rwd_trace_bytes",
			"Exported-tree JSON bytes currently retained by the flight recorder.",
			func() float64 { return float64(s.flight.Stats().Bytes) })
	}
	s.reg.CounterFunc("rwd_profile_observed_total",
		"Finished traces folded into the workload-profile engine.",
		func() float64 { return float64(s.profile.Observed()) })

	// Process self-metrics: enough to spot a leak or a runaway request
	// fleet from the scrape alone.
	s.reg.GaugeFunc("go_goroutines",
		"Number of goroutines that currently exist.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("go_memstats_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	s.reg.GaugeVec("rwd_build_info",
		"Constant 1; build information is carried in the labels.",
		"go_version").With(runtime.Version()).Set(1)

	for op, decide := range decideOps {
		h := s.decideHandler(decide)
		if op == "membership" {
			h = s.handleMembership // decodes before the deadline harness
		}
		s.mux.Handle("POST /v1/"+op, s.endpoint(op, h))
	}
	s.mux.Handle("POST /v1/analyze", s.endpoint("analyze", s.handleAnalyze))
	s.mux.Handle("POST /v1/batch", s.endpoint("batch", s.handleBatch))
	s.mux.Handle("GET /v1/corpora", s.endpoint("corpora", s.handleCorporaList))
	s.mux.Handle("POST /v1/corpora", s.endpoint("corpora_ingest", s.handleCorporaIngest))
	// The trace query endpoints bypass admission control like healthz
	// and metrics: the flight recorder exists to diagnose a saturated
	// server, so it must answer while the server is saturated.
	s.mux.Handle("GET /v1/traces", s.traceEndpoint("traces", s.handleTracesQuery))
	s.mux.Handle("GET /v1/traces/{id}", s.traceEndpoint("trace_get", s.handleTraceGet))
	s.mux.Handle("GET /v1/stats", s.traceEndpoint("stats", s.handleStats))
	// healthz and metrics bypass admission control: they must answer even
	// (especially) when the server is saturated.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the fully routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (for tests and embedders).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Tracer exposes the server's tracer so embedders (cmd/rwdserve) can
// run startup work — store open/recovery — under a root span that
// lands in the flight recorder and rwd_op_duration_seconds like any
// request.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// FlightStats exposes the flight recorder's accounting (zero when the
// recorder is disabled).
func (s *Server) FlightStats() recorder.Stats { return s.flight.Stats() }

// Profile exposes the workload-profile engine (for tests and embedders).
func (s *Server) Profile() *profile.Engine { return s.profile }

// CacheStats exposes the verdict-cache counters (for tests and embedders).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// CompileCacheStats exposes the compile-cache counters (for tests and
// embedders).
func (s *Server) CompileCacheStats() cache.Stats { return s.compiled.Stats() }

// healthzResponse is the JSON body of GET /healthz: liveness plus just
// enough build and subsystem state to orient an operator (or a smoke
// test) without scraping /metrics. GET /healthz?format=text keeps the
// plain "ok" contract for load balancers that match on the body.
type healthzResponse struct {
	Status        string  `json:"status"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Recorder      struct {
		Enabled  bool  `json:"enabled"`
		Retained int64 `json:"retained"`
	} `json:"recorder"`
	Profile struct {
		Observed int64 `json:"observed"`
	} `json:"profile"`
	StoreAttached bool `json:"store_attached"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
		return
	}
	resp := healthzResponse{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		Revision:      buildRevision(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		StoreAttached: s.store != nil,
	}
	resp.Recorder.Enabled = s.flight != nil
	resp.Recorder.Retained = s.flight.Stats().Retained
	resp.Profile.Observed = s.profile.Observed()
	writeJSON(w, http.StatusOK, resp)
}

// buildRevision returns the VCS revision baked into the binary by the
// Go toolchain, "" when built outside a checkout (e.g. go test).
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		s.log.Printf("level=error endpoint=metrics err=%q", err)
	}
}
