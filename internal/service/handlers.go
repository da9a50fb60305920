package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/determinism"
	"repro/internal/dtd"
	"repro/internal/edtd"
	"repro/internal/inference"
	"repro/internal/jsonschema"
	"repro/internal/kore"
	"repro/internal/rdf"
	"repro/internal/regex"
	"repro/internal/store"
	"repro/internal/textio"
	"repro/internal/tree"
)

// jsonschemaSamples is the randomized-refutation budget of the
// jsonschema containment engine; fixed (with the seed) so that verdicts
// are deterministic and therefore cacheable.
const jsonschemaSamples = 200

// Every endpoint body is parsed and decided by a decide* function that
// runs synchronously under ctx: parse, per-instance cache lookup where a
// cache exists, engine, cache fill. The single-decision endpoints wrap
// one decide call in the runEngine deadline harness; /v1/batch calls the
// same functions once per item, so a batch verdict is identical to the
// verdict the dedicated endpoint would have produced.

// decideFunc decides one endpoint body; explain is the request
// envelope's explain flag.
type decideFunc func(s *Server, ctx context.Context, body []byte, explain bool) (any, *apiError)

// decideOps is the table of decision ops: New serves each on
// POST /v1/<op>, and /v1/batch dispatches its items through it.
var decideOps = map[string]decideFunc{
	"containment": (*Server).decideContainment,
	"membership":  (*Server).decideMembership,
	"validate":    (*Server).decideValidate,
	"infer":       (*Server).decideInfer,
}

// decideHandler serves one decision op: its decide function under the
// runEngine deadline harness.
func (s *Server) decideHandler(decide decideFunc) handlerFunc {
	return func(ctx context.Context, req *request) (any, *apiError) {
		return runEngine(ctx, req, func(ctx context.Context) (any, *apiError) {
			return decide(s, ctx, req.body, req.env.Explain)
		})
	}
}

// ---- POST /v1/containment ----

type containmentRequest struct {
	// Engine selects the decision procedure: regex (general, PSPACE),
	// kore (k-ORE, Theorem 4.6), dtd (Definition 4.1 reduction), or
	// jsonschema (sound-but-incomplete three-valued check).
	Engine string `json:"engine"`
	Left   string `json:"left"`
	Right  string `json:"right"`
	// DeadlineMS overrides the server's default deadline (clamped to the
	// configured maximum). Parsed by the middleware envelope; listed here
	// so the request shape documents itself.
	DeadlineMS int `json:"deadline_ms"`
	// Explain asks for the span tree of the decision alongside the
	// verdict. Explain requests bypass the verdict-cache read: a cache
	// hit would short-circuit the engine and return an empty trace.
	Explain bool `json:"explain"`
}

type containmentResponse struct {
	Engine    string  `json:"engine"`
	Contained bool    `json:"contained"`
	Verdict   string  `json:"verdict"`
	Witness   string  `json:"witness,omitempty"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// decideContainment parses one containment instance, consults the
// verdict cache under the canonical key, runs the selected engine, and
// fills the cache. Shared by /v1/containment and /v1/batch.
//
// A repeat of a request whose canonical key has hit before skips the
// parse: the compile cache aliases the raw request text to its canonical
// key, so the one verdict-cache lookup uses that key directly. The
// alias is written only when a canonical lookup hits, so a stream of
// unique requests adds nothing to the compile cache, and only for texts
// up to maxCompileKey.
func (s *Server) decideContainment(ctx context.Context, body []byte, explain bool) (any, *apiError) {
	var req containmentRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	if req.Left == "" || req.Right == "" {
		return nil, errBadRequest("left and right are required")
	}

	// Explain requests bypass both reads: a hit would short-circuit the
	// engine and return an empty trace.
	alias := cacheKey("containment", req.Engine, req.Left, req.Right)
	useAlias := !explain && len(alias) <= maxCompileKey
	skipRead := explain
	if useAlias {
		if v, ok := s.compiled.Get(alias); ok {
			if resp, ok := s.cachedVerdict(v.(string)); ok {
				return resp, nil
			}
			// The verdict was evicted. Parsing yields the key just looked
			// up, so decide without a second lookup.
			skipRead = true
		}
	}

	// Parse and canonicalize both sides up front: the canonical rendering
	// is the cache key, so "a|b" and "( a | b )" share an entry.
	var engine func(ctx context.Context) (bool, string, string, error) // contained, verdict, witness
	var key string
	switch req.Engine {
	case "regex", "kore":
		e1, err := regex.Parse(req.Left)
		if err != nil {
			return nil, errBadRequest("left: %v", err)
		}
		e2, err := regex.Parse(req.Right)
		if err != nil {
			return nil, errBadRequest("right: %v", err)
		}
		key = containmentKey(req.Engine, e1, e2)
		contains := automata.ContainsCtx
		if req.Engine == "kore" {
			contains = kore.ContainmentCtx
		}
		engine = func(ctx context.Context) (bool, string, string, error) {
			ok, err := contains(ctx, e1, e2)
			return ok, boolVerdict(ok), "", err
		}
	case "dtd":
		d1, err := dtd.ParseText(req.Left, "")
		if err != nil {
			return nil, errBadRequest("left: %v", err)
		}
		d2, err := dtd.ParseText(req.Right, "")
		if err != nil {
			return nil, errBadRequest("right: %v", err)
		}
		key = cacheKey("dtd", d1.String(), d2.String())
		engine = func(ctx context.Context) (bool, string, string, error) {
			ok, err := dtd.ContainsCtx(ctx, d1, d2)
			return ok, boolVerdict(ok), "", err
		}
	case "jsonschema":
		s1, err := jsonschema.Parse(req.Left)
		if err != nil {
			return nil, errBadRequest("left: %v", err)
		}
		s2, err := jsonschema.Parse(req.Right)
		if err != nil {
			return nil, errBadRequest("right: %v", err)
		}
		cl, err := canonicalJSON(req.Left)
		if err != nil {
			return nil, errBadRequest("left: %v", err)
		}
		cr, err := canonicalJSON(req.Right)
		if err != nil {
			return nil, errBadRequest("right: %v", err)
		}
		key = cacheKey("jsonschema", cl, cr)
		engine = func(ctx context.Context) (bool, string, string, error) {
			v, witness := jsonschema.ContainsCtx(ctx, s1, s2, jsonschemaSamples, 1)
			switch v {
			case jsonschema.Contained:
				return true, "contained", "", nil
			case jsonschema.NotContained:
				return false, "not_contained", witness, nil
			}
			return false, "unknown", "", nil
		}
	default:
		return nil, errBadRequest("unknown engine %q (want regex, kore, dtd, or jsonschema)", req.Engine)
	}

	if !skipRead {
		if resp, ok := s.cachedVerdict(key); ok {
			if useAlias {
				s.compiled.Put(alias, key)
			}
			return resp, nil
		}
	}
	start := time.Now()
	ok, verdict, witness, err := engine(ctx)
	if err != nil {
		return nil, engineError(ctx, err) // timeouts are not cached: the verdict is unknown
	}
	resp := containmentResponse{
		Engine:    req.Engine,
		Contained: ok,
		Verdict:   verdict,
		Witness:   witness,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	s.cache.Put(key, resp)
	return resp, nil
}

// cachedVerdict looks key up in the verdict cache.
func (s *Server) cachedVerdict(key string) (containmentResponse, bool) {
	v, ok := s.cache.Get(key)
	if !ok {
		return containmentResponse{}, false
	}
	resp := v.(containmentResponse)
	resp.Cached = true
	return resp, true
}

func boolVerdict(ok bool) string {
	if ok {
		return "contained"
	}
	return "not_contained"
}

// cacheKey joins a kind and its parts into one cache key. Each part is
// length-prefixed, so no choice of part texts can make two different
// part lists collide.
func cacheKey(kind string, parts ...string) string {
	n := len(kind)
	for _, p := range parts {
		n += len(p) + 8
	}
	b := make([]byte, 0, n)
	b = append(b, kind...)
	for _, p := range parts {
		b = appendKeyPart(b, p)
	}
	return string(b)
}

// appendKeyPart appends one part of a cache key: 0x1f, the part's
// length in decimal, ':' and the part.
func appendKeyPart(b []byte, p string) []byte {
	b = append(b, 0x1f)
	b = strconv.AppendInt(b, int64(len(p)), 10)
	b = append(b, ':')
	return append(b, p...)
}

// containmentKey is cacheKey(engine, e1.String(), e2.String()), built
// in one buffer: each side renders straight into the key.
func containmentKey(engine string, e1, e2 *regex.Expr) string {
	var buf [512]byte
	b := append(buf[:0], engine...)
	b = appendExprKeyPart(b, e1)
	b = appendExprKeyPart(b, e2)
	return string(b)
}

// appendExprKeyPart is appendKeyPart(b, e.String()). The length prefix
// is known only once e is rendered, so e renders in place and then
// moves right past the prefix.
func appendExprKeyPart(b []byte, e *regex.Expr) []byte {
	b = append(b, 0x1f)
	start := len(b)
	b = e.AppendTo(b)
	n := len(b) - start
	var digits [24]byte
	prefix := append(strconv.AppendInt(digits[:0], int64(n), 10), ':')
	b = append(b, prefix...)
	copy(b[start+len(prefix):], b[start:start+n])
	copy(b[start:], prefix)
	return b
}

// canonicalJSON re-renders a JSON document with sorted object keys and no
// insignificant whitespace, so syntactically different but identical
// schemas share a cache entry.
func canonicalJSON(doc string) (string, error) {
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		return "", err
	}
	out, err := json.Marshal(v) // Go marshals map keys in sorted order
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// ---- POST /v1/membership ----

type membershipRequest struct {
	Expr       string   `json:"expr"`
	Word       []string `json:"word"`
	DeadlineMS int      `json:"deadline_ms"`
}

type membershipResponse struct {
	Member bool `json:"member"`
	// Deterministic reports whether the expression is deterministic in
	// the Brüggemann-Klein & Wood sense (its Glushkov automaton is a DFA).
	Deterministic bool `json:"deterministic"`
}

// decideMembership decodes a membership body and decides it with
// membership; /v1/batch calls it per item.
func (s *Server) decideMembership(ctx context.Context, body []byte, _ bool) (any, *apiError) {
	req, aerr := decodeMembership(body)
	if aerr != nil {
		return nil, aerr
	}
	return s.membership(ctx, req)
}

// handleMembership serves /v1/membership. It decodes the body on the
// request goroutine and runs only membership under the runEngine
// deadline harness: encoding/json checks no context, and a word of
// megabytes takes a good part of a second to decode, so a decode in the
// engine goroutine would hold the admission slot that long past the
// 504. Here a slow decode delays the 504 instead, by at most the decode
// of a body of MaxBodyBytes.
func (s *Server) handleMembership(ctx context.Context, req *request) (any, *apiError) {
	m, aerr := decodeMembership(req.body)
	if aerr != nil {
		return nil, aerr
	}
	return runEngine(ctx, req, func(ctx context.Context) (any, *apiError) {
		return s.membership(ctx, m)
	})
}

// decodeMembership decodes a membership body.
func decodeMembership(body []byte) (membershipRequest, *apiError) {
	var req membershipRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, errBadRequest("invalid JSON: %v", err)
	}
	return req, nil
}

// membership answers from the expression's compiled Matcher, cached
// under the raw expression text.
func (s *Server) membership(ctx context.Context, req membershipRequest) (any, *apiError) {
	v, aerr := s.compile(cacheKey("membership", req.Expr), func() (any, *apiError) {
		e, err := regex.Parse(req.Expr)
		if err != nil {
			return nil, errBadRequest("expr: %v", err)
		}
		return automata.NewMatcher(e), nil
	})
	if aerr != nil {
		return nil, aerr
	}
	m := v.(*automata.Matcher)
	member, err := m.Accepts(ctx, req.Word)
	if err != nil {
		return nil, ctxError(err)
	}
	return membershipResponse{Member: member, Deterministic: m.Deterministic()}, nil
}

// maxCompileKey bounds the raw request text the compile cache keys on.
// A larger input is parsed and compiled on every request, as with no
// cache, so one entry never pins a request text of megabytes.
const maxCompileKey = 64 << 10

// compile returns the compile-cache entry under key, building and
// caching it on a miss. Keys are raw request texts, so an entry is
// sound by construction: parsing them again would build the same thing.
// A failed build is not cached.
func (s *Server) compile(key string, build func() (any, *apiError)) (any, *apiError) {
	if len(key) > maxCompileKey {
		return build()
	}
	if v, ok := s.compiled.Get(key); ok {
		return v, nil
	}
	v, aerr := build()
	if aerr != nil {
		return nil, aerr
	}
	s.compiled.Put(key, v)
	return v, nil
}

// ---- POST /v1/validate ----

type edtdTypeJSON struct {
	Name    string `json:"name"`
	Label   string `json:"label"`
	Content string `json:"content"` // regular expression over type names
}

type validateRequest struct {
	// Kind selects the schema language: dtd, edtd, or single-type.
	Kind string `json:"kind"`
	// Schema is DTD text (<!ELEMENT …>) for kind=dtd.
	Schema string `json:"schema,omitempty"`
	// Root optionally overrides the DTD start label.
	Root string `json:"root,omitempty"`
	// Types and Start define the EDTD for kind=edtd / single-type.
	Types []edtdTypeJSON `json:"types,omitempty"`
	Start []string       `json:"start,omitempty"`
	// Docs are documents in label(child, …) tree syntax.
	Docs       []string `json:"docs"`
	DeadlineMS int      `json:"deadline_ms"`
}

type validateResult struct {
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
}

type validateResponse struct {
	Kind    string           `json:"kind"`
	Results []validateResult `json:"results"`
}

// decideValidate validates every document. A DTD is compiled once per
// schema text and root, and cached; an EDTD is compiled once per request.
func (s *Server) decideValidate(ctx context.Context, body []byte, _ bool) (any, *apiError) {
	var req validateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	if len(req.Docs) == 0 {
		return nil, errBadRequest("docs is required")
	}
	docs := make([]*tree.Node, len(req.Docs))
	for i, d := range req.Docs {
		t, err := tree.Parse(d)
		if err != nil {
			return nil, errBadRequest("docs[%d]: %v", i, err)
		}
		docs[i] = t
	}

	var check func(*tree.Node) validateResult
	switch req.Kind {
	case "dtd":
		if req.Schema == "" {
			return nil, errBadRequest("schema (DTD text) is required for kind=dtd")
		}
		v, aerr := s.compile(cacheKey("dtd", req.Schema, req.Root), func() (any, *apiError) {
			d, err := dtd.ParseText(req.Schema, req.Root)
			if err != nil {
				return nil, errBadRequest("schema: %v", err)
			}
			return d.Compile(), nil
		})
		if aerr != nil {
			return nil, aerr
		}
		d := v.(*dtd.Compiled)
		check = func(t *tree.Node) validateResult {
			if err := d.Validate(ctx, t); err != nil {
				return validateResult{Valid: false, Error: err.Error()}
			}
			return validateResult{Valid: true}
		}
	case "edtd", "single-type":
		d, aerr := buildEDTD(req.Types, req.Start)
		if aerr != nil {
			return nil, aerr
		}
		if req.Kind == "single-type" && !d.IsSingleType() {
			return nil, errBadRequest("the given EDTD is not single-type")
		}
		c := d.Compile()
		check = func(t *tree.Node) validateResult {
			if ok, err := c.Valid(ctx, t); err != nil || !ok {
				return validateResult{Valid: false, Error: "no valid typing exists"}
			}
			return validateResult{Valid: true}
		}
	default:
		return nil, errBadRequest("unknown kind %q (want dtd, edtd, or single-type)", req.Kind)
	}

	resp := validateResponse{Kind: req.Kind, Results: make([]validateResult, len(docs))}
	for i, t := range docs {
		resp.Results[i] = check(t) // the error of a deadline inside t is not sent
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err)
		}
	}
	return resp, nil
}

func buildEDTD(types []edtdTypeJSON, start []string) (*edtd.EDTD, *apiError) {
	if len(types) == 0 {
		return nil, errBadRequest("types is required for kind=edtd / single-type")
	}
	d := edtd.New()
	for i, t := range types {
		if t.Name == "" || t.Label == "" {
			return nil, errBadRequest("types[%d]: name and label are required", i)
		}
		e, err := regex.Parse(t.Content)
		if t.Content == "" {
			e, err = regex.NewEpsilon(), nil
		}
		if err != nil {
			return nil, errBadRequest("types[%d].content: %v", i, err)
		}
		d.AddType(t.Name, t.Label, e)
	}
	if len(start) == 0 {
		return nil, errBadRequest("start is required for kind=edtd / single-type")
	}
	for _, s := range start {
		d.AddStart(s)
	}
	return d, nil
}

// ---- POST /v1/infer ----

type inferRequest struct {
	// Algorithm: sore (2T-INF + RWR), chare (CRX), kore (fixed k), or
	// best-kore (smallest k <= K yielding a deterministic expression).
	Algorithm  string     `json:"algorithm"`
	K          int        `json:"k,omitempty"`
	Words      [][]string `json:"words"`
	DeadlineMS int        `json:"deadline_ms"`
}

type inferResponse struct {
	Algorithm     string `json:"algorithm"`
	Expr          string `json:"expr"`
	K             int    `json:"k,omitempty"`
	Deterministic bool   `json:"deterministic"`
}

// decideInfer runs the selected learner on the sample, consulting the
// verdict cache under inferKey first. Shared by /v1/infer and /v1/batch.
// The key holds the request's own fields only, so an entry is sound by
// construction, as the compile cache's raw-text keys are. Explain
// requests skip the read, so their trace shows the inference spans; an
// answer is stored only when the request's deadline has not passed, and
// only for keys up to maxCompileKey.
func (s *Server) decideInfer(ctx context.Context, body []byte, explain bool) (any, *apiError) {
	var req inferRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	if len(req.Words) == 0 {
		return nil, errBadRequest("words is required")
	}
	switch req.Algorithm {
	case "sore", "chare", "kore", "best-kore":
	default:
		return nil, errBadRequest("unknown algorithm %q (want sore, chare, kore, or best-kore)", req.Algorithm)
	}
	for i, w := range req.Words {
		for j, sym := range w {
			if sym == "" {
				return nil, errBadRequest("words[%d][%d]: empty symbol", i, j)
			}
		}
	}
	key := inferKey(&req)
	useCache := len(key) <= maxCompileKey
	if useCache && !explain {
		if v, ok := s.cache.Get(key); ok {
			return v, nil
		}
	}
	sample := inference.Sample(req.Words)
	var e *regex.Expr
	k := req.K
	switch req.Algorithm {
	case "sore":
		e = inference.InferSORECtx(ctx, sample)
	case "chare":
		e = inference.InferCHARECtx(ctx, sample)
	case "kore":
		if k < 1 {
			k = 2
		}
		e = inference.InferKORECtx(ctx, sample, k)
	case "best-kore":
		if k < 1 {
			k = 4
		}
		e, k = inference.InferBestKORECtx(ctx, sample, k, determinism.IsDeterministic)
	}
	resp := inferResponse{
		Algorithm:     req.Algorithm,
		Expr:          e.String(),
		K:             k,
		Deterministic: determinism.IsDeterministic(e),
	}
	if useCache && ctx.Err() == nil {
		s.cache.Put(key, resp)
	}
	return resp, nil
}

// inferKey is the verdict-cache key of an infer request: the kind
// "infer", the algorithm and the requested k as cacheKey parts, then
// each word in request order as 0x1e, its symbol count, and each symbol
// as a cacheKey part. Every field is delimited or length-prefixed, so
// two requests share a key only if they carry the same algorithm, the
// same k and the same sequence of words.
func inferKey(req *inferRequest) string {
	k := strconv.Itoa(req.K)
	n := len("infer") + len(req.Algorithm) + len(k) + 16
	for _, w := range req.Words {
		n += 8
		for _, sym := range w {
			n += len(sym) + 8
		}
	}
	b := make([]byte, 0, n)
	b = append(b, "infer"...)
	b = appendKeyPart(b, req.Algorithm)
	b = appendKeyPart(b, k)
	for _, w := range req.Words {
		b = append(b, 0x1e)
		b = strconv.AppendInt(b, int64(len(w)), 10)
		for _, sym := range w {
			b = appendKeyPart(b, sym)
		}
	}
	return string(b)
}

// ---- POST /v1/analyze ----

type analyzeRequest struct {
	Name    string   `json:"name"`
	Queries []string `json:"queries"`
	// Corpus names a stored corpus to analyze instead of inline
	// queries: a log corpus runs through the same query analysis as
	// inline queries (byte-identical report); a triples corpus runs the
	// Section 7.1 RDF analyses. Requires an attached store.
	Corpus     string `json:"corpus,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	DeadlineMS int    `json:"deadline_ms"`
}

type analyzeResponse struct {
	Corpus    string             `json:"corpus,omitempty"`
	Queries   int                `json:"queries"`
	Workers   int                `json:"workers"`
	Report    *core.SourceReport `json:"report,omitempty"`
	RDFStats  *rdf.Stats         `json:"rdf_stats,omitempty"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// handleAnalyze accepts either a JSON body ({"queries": […]}) or — with
// Content-Type application/x-ndjson or text/plain — a raw query log, one
// query per line, read through internal/textio and sharded server-side
// across the core worker pool. In stream mode the options move to the
// query string: ?name=…&workers=…&deadline_ms=…&explain=true.
func (s *Server) handleAnalyze(ctx context.Context, req *request) (any, *apiError) {
	var in analyzeRequest
	if req.ndjson {
		queries, err := textio.ReadLines(bytes.NewReader(req.body))
		if err != nil {
			return nil, errBadRequest("reading query log: %v", err)
		}
		in = analyzeRequest{Name: req.query.Get("name"), Queries: queries}
		in.Corpus = req.query.Get("corpus")
		if w, err := strconv.Atoi(req.query.Get("workers")); err == nil {
			in.Workers = w
		}
	} else if err := json.Unmarshal(req.body, &in); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	if in.Corpus != "" && len(in.Queries) > 0 {
		return nil, errBadRequest("corpus and queries are mutually exclusive")
	}
	if in.Corpus == "" && len(in.Queries) == 0 {
		return nil, errBadRequest("queries is required")
	}
	var corpus store.Corpus
	if in.Corpus != "" {
		if s.store == nil {
			return nil, errNoStoreAttached
		}
		var err error
		if corpus, err = s.store.Lookup(in.Corpus); err != nil {
			return nil, storeError(err)
		}
	}
	name := in.Name
	if name == "" {
		name = "corpus"
	}
	workers := in.Workers
	if workers <= 0 || workers > s.cfg.AnalyzeWorkers {
		workers = s.cfg.AnalyzeWorkers
	}
	start := time.Now()
	return runEngine(ctx, req, func(ctx context.Context) (any, *apiError) {
		elapsed := func() float64 { return float64(time.Since(start).Microseconds()) / 1000 }
		queries := in.Queries
		switch {
		case in.Corpus != "" && corpus.Kind == store.KindTriples:
			// Store-backed RDF analysis: the Section 7.1 stats of the
			// corpus, memoized by the store per commit generation.
			stats, err := s.store.RDFStats(ctx, in.Corpus)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctxError(ctx.Err())
				}
				return nil, storeError(err)
			}
			return analyzeResponse{
				Corpus:    in.Corpus,
				Workers:   workers,
				RDFStats:  stats,
				ElapsedMS: elapsed(),
			}, nil
		case in.Corpus != "":
			// Store-backed log analysis: the stored lines run through the
			// same sharded analyzer as inline queries, so the report is
			// byte-identical to the in-memory path on the same log.
			var err error
			if queries, err = s.store.LogLines(ctx, in.Corpus); err != nil {
				if ctx.Err() != nil {
					return nil, ctxError(ctx.Err())
				}
				return nil, storeError(err)
			}
			if name == "corpus" {
				name = in.Corpus
			}
		}
		rep := core.AnalyzeQueriesCtx(ctx, name, queries, workers)
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err) // the shards aborted early; the report is partial
		}
		return analyzeResponse{
			Corpus:    in.Corpus,
			Queries:   len(queries),
			Workers:   workers,
			Report:    rep,
			ElapsedMS: elapsed(),
		}, nil
	})
}
