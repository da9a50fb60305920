// Package serveload is the rwdserve load generator behind `rwdbench
// -serve-load`: it drives sustained, seeded, concurrent mixed traffic
// (containment, membership, validation, inference, log analysis, NDJSON
// streams, batches, and deliberately adversarial deadline-bounded
// instances) against a running server, scrapes /metrics before and
// after, and distills the run into a benchmark baseline — the
// BENCH_serve.json perf trajectory that later PRs are measured against.
//
// Request streams are deterministic: worker w of a run with seed s
// always issues the same requests in the same order, so two runs differ
// only in server behavior, never in workload (TestStreamDeterminism pins
// this). The generated instances reuse the adversarial families of the
// service tests, so timeout and cache-hit rates are exercised on
// purpose, not by accident.
package serveload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/metrics"
	"repro/internal/obs/profile"
)

// Config parameterizes a load run. The zero value is not usable: BaseURL
// is required; every other field has a documented default.
type Config struct {
	// BaseURL is the root of a running rwdserve (e.g. http://127.0.0.1:8080).
	BaseURL string
	// Seed derives every worker's request stream.
	Seed int64
	// Duration is the sustained-load window; <= 0 means 10s.
	Duration time.Duration
	// Concurrency is the number of workers issuing requests back-to-back;
	// <= 0 means 8.
	Concurrency int
	// MaxRequestsPerWorker additionally bounds each worker's stream
	// (tests use it for fast deterministic runs); 0 means duration-bound
	// only.
	MaxRequestsPerWorker int
	// Client overrides the HTTP client; nil means a 30s-timeout default.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Request is one generated HTTP request of the mixed workload.
type Request struct {
	// Kind is the reporting label (the endpoint name, with "-stream" and
	// "-adversarial" variants kept distinct so their latencies do not
	// pollute the main series).
	Kind string
	// Path is the URL path including any query-string envelope.
	Path string
	// ContentType is application/json except for NDJSON streams.
	ContentType string
	Body        string
}

// Stream deterministically generates one worker's request sequence.
// Identical (seed, worker) pairs yield identical streams — the property
// that makes baselines comparable across runs and PRs.
type Stream struct {
	r *rand.Rand
}

// NewStream returns worker w's stream for a seed.
func NewStream(seed int64, worker int) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919 + 17))}
}

// sparqlTemplates is the query pool of the analyze workloads; %s slots
// take generated variable names so unique-query counting has work to do.
var sparqlTemplates = []string{
	"SELECT ?%s WHERE { ?%s ?p ?y }",
	"SELECT ?%s WHERE { ?%s <p> ?y . ?y <q> ?z }",
	"SELECT * WHERE { ?%s ?p ?o OPTIONAL { ?o ?q ?%s } }",
	"ASK { ?%s ?p ?o }",
	"SELECT ?%s WHERE { ?%s (<p>/<q>)* ?y }",
	"SELECT DISTINCT ?%s WHERE { ?%s ?p ?y FILTER(?y != ?%s) }",
}

// Next generates the next request of the stream. The mix is weighted
// toward the bulk endpoints the paper's workloads stress, with a small
// deliberate share of deadline-bounded adversarial instances so timeout
// accounting is exercised.
func (s *Stream) Next() Request {
	r := s.r
	switch p := r.Intn(100); {
	case p < 30: // regex containment from a shared pool: repeats hit the cache
		k := r.Intn(40)
		return jsonReq("containment", "/v1/containment", map[string]any{
			"engine": "regex",
			"left":   fmt.Sprintf("(a|b)* x%d", k),
			"right":  fmt.Sprintf("(a|b)* (a|b) x%d", k),
		})
	case p < 40: // k-ORE containment
		k := r.Intn(12)
		return jsonReq("containment", "/v1/containment", map[string]any{
			"engine": "kore",
			"left":   fmt.Sprintf("a a y%d", k),
			"right":  fmt.Sprintf("a* a* y%d", k),
		})
	case p < 55: // membership over a fixed deterministic expression
		word := make([]string, 1+r.Intn(12))
		for i := range word {
			word[i] = string(rune('a' + r.Intn(2)))
		}
		return jsonReq("membership", "/v1/membership", map[string]any{
			"expr": "b* a (b* a)*",
			"word": word,
		})
	case p < 65: // DTD validation with a mix of valid and invalid docs
		docs := make([]string, 1+r.Intn(4))
		for i := range docs {
			docs[i] = "r(" + strings.TrimSuffix(strings.Repeat("a, ", r.Intn(4)), ", ") + ")"
			if docs[i] == "r()" {
				docs[i] = "r"
			}
			if r.Intn(5) == 0 {
				docs[i] = "r(b)" // not in the schema: exercises the error path
			}
		}
		return jsonReq("validate", "/v1/validate", map[string]any{
			"kind":   "dtd",
			"schema": "<!ELEMENT r (a*)> <!ELEMENT a EMPTY>",
			"docs":   docs,
		})
	case p < 75: // schema inference from random positive samples
		alg := []string{"sore", "chare"}[r.Intn(2)]
		words := make([][]string, 2+r.Intn(4))
		for i := range words {
			w := make([]string, 1+r.Intn(4))
			for j := range w {
				w[j] = string(rune('a' + r.Intn(3)))
			}
			words[i] = w
		}
		return jsonReq("infer", "/v1/infer", map[string]any{"algorithm": alg, "words": words})
	case p < 85: // JSON-mode log analysis
		return jsonReq("analyze", "/v1/analyze", map[string]any{
			"name":    "load",
			"queries": s.queries(4 + r.Intn(9)),
			"workers": 2,
		})
	case p < 92: // heterogeneous batch
		items := make([]map[string]any, 3+r.Intn(4))
		for i := range items {
			switch r.Intn(3) {
			case 0:
				k := r.Intn(40)
				items[i] = map[string]any{"op": "containment", "request": map[string]any{
					"engine": "regex",
					"left":   fmt.Sprintf("(a|b)* x%d", k),
					"right":  fmt.Sprintf("(a|b)* (a|b) x%d", k),
				}}
			case 1:
				items[i] = map[string]any{"op": "membership", "request": map[string]any{
					"expr": "(a|b)* a", "word": []string{"b", "a"},
				}}
			default:
				items[i] = map[string]any{"op": "infer", "request": map[string]any{
					"algorithm": "sore", "words": [][]string{{"a", "b"}, {"a"}},
				}}
			}
		}
		return jsonReq("batch", "/v1/batch", map[string]any{"items": items})
	case p < 96: // NDJSON streaming analysis: a raw query log over the wire
		return Request{
			Kind:        "analyze-stream",
			Path:        "/v1/analyze?name=load-stream&workers=2",
			ContentType: "application/x-ndjson",
			Body:        strings.Join(s.queries(8+r.Intn(17)), "\n") + "\n",
		}
	default: // adversarial exponential instance under a tight deadline: a deliberate 504
		// self-containment of the antichain-hard family defeats the lazy
		// engine's pruning; k=16 needs tens of seconds, so it always 504s
		hard := automata.AntichainHardExpr(16)
		return jsonReq("containment-adversarial", "/v1/containment", map[string]any{
			"engine": "regex", "left": hard, "right": hard,
			"deadline_ms": 10 + r.Intn(40),
		})
	}
}

// queries draws n SPARQL queries from the template pool, with some
// repeats (same variable name) so unique-query deduplication is real.
func (s *Stream) queries(n int) []string {
	out := make([]string, n)
	for i := range out {
		t := sparqlTemplates[s.r.Intn(len(sparqlTemplates))]
		v := fmt.Sprintf("v%d", s.r.Intn(20))
		out[i] = strings.ReplaceAll(t, "%s", v)
	}
	return out
}

func jsonReq(kind, path string, body map[string]any) Request {
	raw, err := json.Marshal(body)
	if err != nil {
		panic("serveload: unmarshalable generated body: " + err.Error())
	}
	return Request{Kind: kind, Path: path, ContentType: "application/json", Body: string(raw)}
}

// Percentiles are client-observed latency quantiles in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// EndpointStats is the per-kind slice of the report.
type EndpointStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Timeouts int     `json:"timeouts"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// CacheStats are the verdict-cache /metrics deltas over the run.
type CacheStats struct {
	Hits      float64 `json:"hits"`
	Misses    float64 `json:"misses"`
	Evictions float64 `json:"evictions"`
	// HitRate is hits/(hits+misses) over the run's lookups.
	HitRate float64 `json:"hit_rate"`
}

// RecorderStats is the flight recorder's /metrics view of the run:
// Recorded/Evicted/Dropped are deltas (cumulative counters), Retained
// and Bytes the ring's state at the end of the run.
type RecorderStats struct {
	Recorded float64 `json:"recorded"`
	Evicted  float64 `json:"evicted"`
	Dropped  float64 `json:"dropped"`
	Retained float64 `json:"retained"`
	Bytes    float64 `json:"bytes"`
}

// Report is the persisted baseline: what BENCH_serve.json holds. All
// counters are deltas over the run (scraped from /metrics before and
// after), so a shared or long-running server still yields honest
// numbers.
type Report struct {
	SchemaVersion   int     `json:"schema_version"`
	Tool            string  `json:"tool"`
	Seed            int64   `json:"seed"`
	Concurrency     int     `json:"concurrency"`
	DurationSeconds float64 `json:"duration_seconds"`

	Requests int     `json:"requests"`
	Errors   int     `json:"errors"` // transport-level failures
	RPS      float64 `json:"rps"`

	LatencyMS Percentiles               `json:"latency_ms"`
	Status    map[string]int            `json:"status"`
	Endpoints map[string]*EndpointStats `json:"endpoints"`

	// Timeouts counts 504s the client saw; ServerTimeouts and
	// ClientClosed are the server's own view over the run, the
	// rwd_op_duration_seconds_count deltas of status 504 and 408 — the
	// two timeout views agree.
	Timeouts       int     `json:"timeouts"`
	ServerTimeouts float64 `json:"server_timeouts"`
	ClientClosed   float64 `json:"client_closed"`

	Cache CacheStats `json:"cache"`
	// Recorder is the trace flight recorder's accounting over the run —
	// the overhead evidence for the always-on recorder (see
	// TestRecorderOverheadUnderFivePercent for the latency bound).
	Recorder RecorderStats `json:"recorder"`
	// SpanCost holds the rwd_span_cost_total deltas, keyed
	// "span/counter" — the algorithmic work (states expanded, queries
	// ingested, …) the run induced server-side.
	SpanCost map[string]float64 `json:"span_cost"`

	// Profile is the server's workload-profile view of the run, scraped
	// from GET /v1/stats?window=lifetime after the load stops: one row
	// per (op, engine), keyed "op|engine" with "-" for profiles where no
	// engine ran (cache hits, rejected requests). Unlike the delta
	// counters above this is the server's lifetime view — identical to
	// the run's own profile for the in-process server rwdbench starts,
	// approximate on a shared long-running one. Absent (nil) when the
	// server predates /v1/stats.
	Profile map[string]*OpProfileSummary `json:"profile,omitempty"`
}

// OpProfileSummary is one (op, engine) row of the report's profile
// block — the server-side durations (the client-side Endpoints rows
// include network and queueing) plus the fitted cost model when the op
// accumulated one.
type OpProfileSummary struct {
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`
	Timeouts    uint64        `json:"timeouts"`
	ErrorRate   float64       `json:"error_rate"`
	TimeoutRate float64       `json:"timeout_rate"`
	P50MS       float64       `json:"p50_ms"`
	P99MS       float64       `json:"p99_ms"`
	Model       *ProfileModel `json:"model,omitempty"`
}

// ProfileModel mirrors the op's fitted duration-vs-cost-counter model.
type ProfileModel struct {
	Counter       string  `json:"counter"`
	Samples       int64   `json:"samples"`
	SlopeMS       float64 `json:"slope_ms_per_unit"`
	InterceptMS   float64 `json:"intercept_ms"`
	R2            float64 `json:"r2"`
	ResidualStdMS float64 `json:"residual_std_ms"`
}

// ProfileKey renders the "op|engine" key of Report.Profile.
func ProfileKey(op, engine string) string {
	if engine == "" {
		engine = "-"
	}
	return op + "|" + engine
}

type sample struct {
	kind   string
	status int
	ms     float64
	failed bool
}

// Run drives the configured load against cfg.BaseURL and returns the
// report. The server must already be up: the initial /metrics scrape
// doubles as the liveness check.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	before, err := scrape(cfg.Client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics before the run: %w", cfg.BaseURL, err)
	}

	start := time.Now()
	stop := start.Add(cfg.Duration)
	perWorker := make([][]sample, cfg.Concurrency)
	done := make(chan int, cfg.Concurrency)
	for w := 0; w < cfg.Concurrency; w++ {
		go func(w int) {
			defer func() { done <- w }()
			st := NewStream(cfg.Seed, w)
			var out []sample
			for n := 0; time.Now().Before(stop); n++ {
				if cfg.MaxRequestsPerWorker > 0 && n >= cfg.MaxRequestsPerWorker {
					break
				}
				out = append(out, issue(cfg.Client, cfg.BaseURL, st.Next()))
			}
			perWorker[w] = out
		}(w)
	}
	for w := 0; w < cfg.Concurrency; w++ {
		<-done
	}
	elapsed := time.Since(start)

	after, err := scrape(cfg.Client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics after the run: %w", cfg.BaseURL, err)
	}

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	rep := buildReport(cfg, elapsed, all, before, after)
	rep.Profile = scrapeProfile(cfg.Client, cfg.BaseURL)
	return rep, nil
}

// scrapeProfile reads the server's workload-profile snapshot into the
// report's profile block. Best-effort: a server without /v1/stats (or a
// failed read) yields nil rather than failing the whole run.
func scrapeProfile(client *http.Client, base string) map[string]*OpProfileSummary {
	resp, err := client.Get(base + "/v1/stats?window=" + profile.WindowLifetime)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap profile.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	out := map[string]*OpProfileSummary{}
	models := map[string]*ProfileModel{}
	for _, m := range snap.Models {
		models[m.Op] = &ProfileModel{
			Counter:       m.Counter,
			Samples:       m.Samples,
			SlopeMS:       m.SlopeMS,
			InterceptMS:   m.InterceptMS,
			R2:            m.R2,
			ResidualStdMS: m.ResidualStdMS,
		}
	}
	for _, row := range snap.Lifetime {
		out[ProfileKey(row.Op, row.Engine)] = &OpProfileSummary{
			Requests:    row.Requests,
			Errors:      row.Errors,
			Timeouts:    row.Timeouts,
			ErrorRate:   row.ErrorRate,
			TimeoutRate: row.TimeoutRate,
			P50MS:       row.DurationMS.P50,
			P99MS:       row.DurationMS.P99,
			// The model is fitted per op (over its dominant cost
			// counter), so every row of the op carries the same one.
			Model: models[row.Op],
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// issue sends one request and records the client-observed outcome.
func issue(client *http.Client, base string, req Request) sample {
	t0 := time.Now()
	resp, err := client.Post(base+req.Path, req.ContentType, strings.NewReader(req.Body))
	ms := float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		return sample{kind: req.Kind, ms: ms, failed: true}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{kind: req.Kind, status: resp.StatusCode, ms: ms}
}

func buildReport(cfg Config, elapsed time.Duration, all []sample, before, after map[string]float64) *Report {
	rep := &Report{
		SchemaVersion:   1,
		Tool:            "rwdbench -serve-load",
		Seed:            cfg.Seed,
		Concurrency:     cfg.Concurrency,
		DurationSeconds: elapsed.Seconds(),
		Requests:        len(all),
		Status:          map[string]int{},
		Endpoints:       map[string]*EndpointStats{},
		SpanCost:        map[string]float64{},
	}
	var lat []float64
	byKind := map[string][]float64{}
	for _, s := range all {
		if s.failed {
			rep.Errors++
		} else {
			rep.Status[fmt.Sprintf("%d", s.status)]++
		}
		ep := rep.Endpoints[s.kind]
		if ep == nil {
			ep = &EndpointStats{}
			rep.Endpoints[s.kind] = ep
		}
		ep.Requests++
		switch {
		case s.failed:
			ep.Errors++
		case s.status == http.StatusGatewayTimeout:
			ep.Timeouts++
			rep.Timeouts++
		}
		lat = append(lat, s.ms)
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	if elapsed > 0 {
		rep.RPS = float64(len(all)) / elapsed.Seconds()
	}
	rep.LatencyMS = Percentiles{
		P50: percentile(lat, 0.50),
		P90: percentile(lat, 0.90),
		P99: percentile(lat, 0.99),
		Max: percentile(lat, 1),
	}
	for kind, ms := range byKind {
		rep.Endpoints[kind].P50MS = percentile(ms, 0.50)
		rep.Endpoints[kind].P99MS = percentile(ms, 0.99)
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	rep.Cache = CacheStats{
		Hits:      delta("rwdserve_cache_hits_total"),
		Misses:    delta("rwdserve_cache_misses_total"),
		Evictions: delta("rwdserve_cache_evictions_total"),
	}
	if lookups := rep.Cache.Hits + rep.Cache.Misses; lookups > 0 {
		rep.Cache.HitRate = rep.Cache.Hits / lookups
	}
	rep.Recorder = RecorderStats{
		Recorded: delta("rwd_traces_recorded_total"),
		Evicted:  delta("rwd_traces_evicted_total"),
		Dropped:  delta("rwd_traces_dropped_total"),
		Retained: after["rwd_traces_retained"],
		Bytes:    after["rwd_trace_bytes"],
	}
	rep.ServerTimeouts = statusDelta(before, after, "504")
	rep.ClientClosed = statusDelta(before, after, "408")
	for series := range after {
		if !strings.HasPrefix(series, "rwd_span_cost_total{") {
			continue
		}
		d := after[series] - before[series]
		if d <= 0 {
			continue
		}
		span, _ := metrics.SeriesLabel(series, "span")
		counter, _ := metrics.SeriesLabel(series, "counter")
		rep.SpanCost[span+"/"+counter] = d
	}
	return rep
}

// statusDelta sums the after-minus-before deltas of the server's request
// counts (rwd_op_duration_seconds_count, every op) for one HTTP status.
func statusDelta(before, after map[string]float64, status string) float64 {
	var total float64
	for series, v := range after {
		if !strings.HasPrefix(series, "rwd_op_duration_seconds_count{") {
			continue
		}
		if st, _ := metrics.SeriesLabel(series, "status"); st == status {
			total += v - before[series]
		}
	}
	return total
}

// percentile returns the q-quantile (0 < q <= 1) by nearest-rank over a
// copy of xs; 0 when empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// WriteJSON renders the report as indented JSON (the BENCH_serve.json
// format).
func WriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
