package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"sync"
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

// Every decision op runs in two stages. Its prepare function runs on
// the request goroutine: it decodes and validates the body, makes the
// cache lookups keyed on raw request text and answers a verdict-cache
// hit. The run it returns otherwise parses, decides and fills the
// caches, and is the only stage under the runEngine deadline
// harness: the parsers check no context, so a slow parse holds a slot
// counted as detached instead of delaying the 504. /v1/batch calls the
// same functions per item, so its verdicts are the endpoints' verdicts.

// prepareFunc is the first stage of a decision op. It decodes body, the
// op's JSON with its envelope (request.decodeOp), and returns an error,
// an answer, or the run that computes one. An explain request skips the
// verdict reads, so its trace shows the engine.
type prepareFunc func(s *Server, req *request, body []byte) (answer any, run runFunc, aerr *apiError)

// runFunc is the second stage of a decision op, run under ctx.
type runFunc func(ctx context.Context) (any, *apiError)

// decideOps is the table of decision ops: New serves each on
// POST /v1/<op>, and /v1/batch dispatches its items through it.
var decideOps = map[string]prepareFunc{
	"containment": (*Server).prepareContainment,
	"membership":  (*Server).prepareMembership,
	"validate":    (*Server).prepareValidate,
	"infer":       (*Server).prepareInfer,
}

// decide runs one op on body: prepare on the calling goroutine, then
// its run, if any, under runEngine. Only a run arms the deadline, so a
// verdict-cache hit starts no timer; a /v1/batch item runs under the
// batch's.
func (s *Server) decide(ctx context.Context, req *request, prepare prepareFunc, body []byte) (any, *apiError) {
	answer, run, aerr := prepare(s, req, body)
	if run == nil {
		return answer, aerr
	}
	if !req.batch {
		ctx = s.arm(ctx, req)
	}
	return runEngine(ctx, req, run)
}

// decodeOp decodes a decision op's body into v, a request type that
// embeds env. On a decide endpoint the body's envelope becomes the
// request's; a /v1/batch item keeps the batch's.
func (req *request) decodeOp(body []byte, v any, env *envelope) *apiError {
	if err := json.Unmarshal(body, v); err != nil {
		return errBadRequest("invalid JSON: %v", err)
	}
	if !req.batch {
		req.env = *env
	}
	return nil
}

// decideHandler serves one decision op on the request body.
func (s *Server) decideHandler(prepare prepareFunc) handlerFunc {
	return func(ctx context.Context, req *request) (any, *apiError) {
		return s.decide(ctx, req, prepare, req.body)
	}
}

// ---- POST /v1/containment ----

type containmentRequest struct {
	// envelope: explain asks for the span tree of the decision alongside
	// the verdict. Explain requests bypass the verdict-cache read: a
	// cache hit would short-circuit the engine and return an empty trace.
	envelope
	// Engine selects the decision procedure: regex (general, PSPACE),
	// kore (k-ORE, Theorem 4.6), dtd (Definition 4.1 reduction), or
	// jsonschema (sound-but-incomplete three-valued check).
	Engine string `json:"engine"`
	Left   string `json:"left"`
	Right  string `json:"right"`
}

type containmentResponse struct {
	Engine    string  `json:"engine"`
	Contained bool    `json:"contained"`
	Verdict   string  `json:"verdict"`
	Witness   string  `json:"witness,omitempty"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// prepareContainment decodes one containment instance and answers a
// repeat from the verdict cache, under the raw request fields: the key
// holds them only, so an entry is sound by construction, as inferKey's
// are. Explain requests skip the read, so their trace shows the engine;
// a verdict is stored only for keys up to maxCompileKey.
func (s *Server) prepareContainment(r *request, body []byte) (any, runFunc, *apiError) {
	var req containmentRequest
	if aerr := r.decodeOp(body, &req, &req.envelope); aerr != nil {
		return nil, nil, aerr
	}
	if req.Left == "" || req.Right == "" {
		return nil, nil, errBadRequest("left and right are required")
	}
	switch req.Engine {
	case "regex", "kore", "dtd", "jsonschema":
	default:
		return nil, nil, errBadRequest("unknown engine %q (want regex, kore, dtd, or jsonschema)", req.Engine)
	}
	key := cacheKey("containment", req.Engine, req.Left, req.Right)
	if !r.env.Explain {
		if v, ok := s.cache.Get(key); ok {
			resp := v.(containmentResponse)
			resp.Cached = true
			return resp, nil, nil
		}
	}
	return nil, func(ctx context.Context) (any, *apiError) {
		var engine func(ctx context.Context) (bool, string, string, error) // contained, verdict, witness
		switch req.Engine {
		case "regex", "kore":
			// Nothing this run returns or caches points into the trees,
			// and an explain trace holds only strings, so both sides
			// parse into a pooled slab pair that goes back when the run
			// returns. A run detached at its deadline returns only when
			// its engine exits, so no engine reads a released tree.
			pair := slabPairs.Get().(*slabPair)
			defer pair.release()
			e1, err := regex.ParseInto(req.Left, &pair.sides[0])
			if err != nil {
				return nil, errBadRequest("left: %v", err)
			}
			e2, err := regex.ParseInto(req.Right, &pair.sides[1])
			if err != nil {
				return nil, errBadRequest("right: %v", err)
			}
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
		if len(key) <= maxCompileKey {
			s.cache.Put(key, resp)
		}
		return resp, nil
	}, nil
}

// slabPair is the parse storage of one uncached regex or kore
// containment run: one regex.Slabs per side, so the left tree survives
// the right side's parse.
type slabPair struct {
	sides [2]regex.Slabs
}

// slabPairs pools the slab pairs of containment runs. regex.ParseInto
// keeps only the first slab of each side, of at most 512 nodes, so a
// pooled pair holds about 57 KB at most and needs no size cap.
var slabPairs = sync.Pool{New: func() any { return new(slabPair) }}

// release clears both sides and puts p back in the pool. Every tree
// parsed into p is dead from here on.
func (p *slabPair) release() {
	p.sides[0].Clear()
	p.sides[1].Clear()
	slabPairs.Put(p)
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

// ---- POST /v1/membership ----

type membershipRequest struct {
	envelope
	Expr string   `json:"expr"`
	Word []string `json:"word"`
}

type membershipResponse struct {
	Member bool `json:"member"`
	// Deterministic reports whether the expression is deterministic in
	// the Brüggemann-Klein & Wood sense (its Glushkov automaton is a DFA).
	Deterministic bool `json:"deterministic"`
}

// prepareMembership decodes a membership body and looks its Matcher up
// in the compile cache, under the raw expression text. Its run matches
// the word, hit or not: a word of megabytes takes its time whatever the
// Matcher.
func (s *Server) prepareMembership(r *request, body []byte) (any, runFunc, *apiError) {
	var req membershipRequest
	if aerr := r.decodeOp(body, &req, &req.envelope); aerr != nil {
		return nil, nil, aerr
	}
	key := cacheKey("membership", req.Expr)
	hit := s.compiledEntry(key)
	return nil, func(ctx context.Context) (any, *apiError) {
		v, aerr := s.compile(hit, key, func() (any, *apiError) {
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
	}, nil
}

// maxCompileKey bounds the keys both caches store. A request with a
// larger key is parsed, compiled and decided on every request, as with
// no cache, so one entry never pins a request text of megabytes.
const maxCompileKey = 64 << 10

// compiledEntry returns the compile-cache entry under key, or nil on a
// miss and for a key over maxCompileKey. Keys are raw request texts, so
// an entry is sound by construction: parsing them again would build the
// same thing.
func (s *Server) compiledEntry(key string) any {
	if len(key) > maxCompileKey {
		return nil
	}
	v, _ := s.compiled.Get(key)
	return v
}

// compile returns hit, the entry compiledEntry found under key, or on
// a miss builds the entry and caches it. A failed build is not cached.
func (s *Server) compile(hit any, key string, build func() (any, *apiError)) (any, *apiError) {
	if hit != nil {
		return hit, nil
	}
	v, aerr := build()
	if aerr == nil && len(key) <= maxCompileKey {
		s.compiled.Put(key, v)
	}
	return v, aerr
}

// ---- POST /v1/validate ----

type edtdTypeJSON struct {
	Name    string `json:"name"`
	Label   string `json:"label"`
	Content string `json:"content"` // regular expression over type names
}

type validateRequest struct {
	envelope
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
	Docs []string `json:"docs"`
}

type validateResult struct {
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
}

type validateResponse struct {
	Kind    string           `json:"kind"`
	Results []validateResult `json:"results"`
}

// prepareValidate decodes a validate body and looks up a DTD's compiled
// form; its run parses the documents and builds an EDTD per request.
func (s *Server) prepareValidate(r *request, body []byte) (any, runFunc, *apiError) {
	var req validateRequest
	if aerr := r.decodeOp(body, &req, &req.envelope); aerr != nil {
		return nil, nil, aerr
	}
	if len(req.Docs) == 0 {
		return nil, nil, errBadRequest("docs is required")
	}
	var key string
	var hit any
	if req.Kind == "dtd" && req.Schema != "" {
		key = cacheKey("dtd", req.Schema, req.Root)
		hit = s.compiledEntry(key)
	}
	return nil, func(ctx context.Context) (any, *apiError) {
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
			v, aerr := s.compile(hit, key, func() (any, *apiError) {
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
	}, nil
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
	envelope
	// Algorithm: sore (2T-INF + RWR), chare (CRX), kore (fixed k), or
	// best-kore (smallest k <= K yielding a deterministic expression).
	Algorithm string     `json:"algorithm"`
	K         int        `json:"k,omitempty"`
	Words     [][]string `json:"words"`
}

type inferResponse struct {
	Algorithm     string `json:"algorithm"`
	Expr          string `json:"expr"`
	K             int    `json:"k,omitempty"`
	Deterministic bool   `json:"deterministic"`
}

// prepareInfer decodes an infer body and answers a repeat from the
// verdict cache, under inferKey; its run runs the selected learner on
// the sample. The key holds the request's own fields only, so an entry
// is sound by construction, as the compile cache's raw-text keys are.
// Explain requests skip the read, so their trace shows the inference
// spans; an answer is stored only when the request's deadline has not
// passed, and only for keys up to maxCompileKey.
func (s *Server) prepareInfer(r *request, body []byte) (any, runFunc, *apiError) {
	var req inferRequest
	if aerr := r.decodeOp(body, &req, &req.envelope); aerr != nil {
		return nil, nil, aerr
	}
	if len(req.Words) == 0 {
		return nil, nil, errBadRequest("words is required")
	}
	switch req.Algorithm {
	case "sore", "chare", "kore", "best-kore":
	default:
		return nil, nil, errBadRequest("unknown algorithm %q (want sore, chare, kore, or best-kore)", req.Algorithm)
	}
	for i, w := range req.Words {
		for j, sym := range w {
			if sym == "" {
				return nil, nil, errBadRequest("words[%d][%d]: empty symbol", i, j)
			}
		}
	}
	key := inferKey(&req)
	useCache := len(key) <= maxCompileKey
	if useCache && !r.env.Explain {
		if v, ok := s.cache.Get(key); ok {
			return v, nil, nil
		}
	}
	return nil, func(ctx context.Context) (any, *apiError) {
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
	}, nil
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
	envelope
	Name    string   `json:"name"`
	Queries []string `json:"queries"`
	// Corpus names a stored corpus to analyze instead of inline
	// queries: a log corpus runs through the same query analysis as
	// inline queries (byte-identical report); a triples corpus runs the
	// Section 7.1 RDF analyses. Requires an attached store.
	Corpus  string `json:"corpus,omitempty"`
	Workers int    `json:"workers,omitempty"`
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
		in = analyzeRequest{envelope: queryEnvelope(req.query), Name: req.query.Get("name"), Queries: queries}
		in.Corpus = req.query.Get("corpus")
		if w, err := strconv.Atoi(req.query.Get("workers")); err == nil {
			in.Workers = w
		}
	} else if err := json.Unmarshal(req.body, &in); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	req.env = in.envelope
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
	ctx = s.arm(ctx, req)
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
