package core

import (
	"context"
	"io"
	"runtime"

	"repro/internal/loggen"
	"repro/internal/obs"
)

// seedStride separates the per-source generator seeds (SourceSeed).
const seedStride = 7919

// Config parameterizes a log study run. The zero value is usable: it
// analyzes the default 1:10000 corpus with seed 0 and one worker per CPU.
type Config struct {
	// Workers is the shard count per source handed to AnalyzeQueriesCtx;
	// 1 runs the sequential reference, <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// ScaleDiv is the corpus scale divisor (1000 generates 1:1000 of the
	// paper's 558M queries); <= 0 means 10000.
	ScaleDiv int
	// Seed is the base generator seed.
	Seed int64
}

// normalized fills in the documented defaults.
func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 10000
	}
	return c
}

// SourceSeed returns the deterministic generator seed for the i-th source
// of loggen.Sources(). It depends only on Seed and i — never on the
// worker count — so any source's stream can be regenerated in isolation
// at any parallelism.
func (c Config) SourceSeed(i int) int64 {
	return c.Seed + int64(i)*seedStride
}

// SourceStream regenerates the exact raw-query stream of the i-th source
// of loggen.Sources(): the same strings, in the same order, that
// RunLogStudy analyzes. Together with ShardSplit this reproduces any
// single shard of any run.
func (c Config) SourceStream(i int) []string {
	cfg := c.normalized()
	s := loggen.Sources()[i]
	g := loggen.NewGen(s, cfg.SourceSeed(i))
	out := make([]string, g.Count(cfg.ScaleDiv))
	for j := range out {
		out[j] = g.Next()
	}
	return out
}

// RunLogStudy generates the synthetic corpus of every Table 2 source, one
// source at a time, and analyzes it with AnalyzeQueriesCtx over
// cfg.Workers shards. Under a traced context each source gets a
// "core.source" span whose children are "core.generate" and the
// analysis spans. Reports are identical at any worker count, traced or
// not.
func RunLogStudy(ctx context.Context, cfg Config) []*SourceReport {
	cfg = cfg.normalized()
	sources := loggen.Sources()
	reports := make([]*SourceReport, len(sources))
	for i, s := range sources {
		srcCtx, span := obs.StartSpan(ctx, "core.source")
		span.SetAttr("source", s.Name)
		_, genSpan := obs.StartSpan(srcCtx, "core.generate")
		stream := cfg.SourceStream(i)
		genSpan.Count("queries_generated", int64(len(stream)))
		genSpan.Finish()
		rep := AnalyzeQueriesCtx(srcCtx, s.Name, stream, cfg.Workers)
		rep.Wikidata, rep.Robotic = s.Wikidata, s.Robotic
		span.Finish()
		reports[i] = rep
	}
	return reports
}

// RenderAll writes every log-derived table and figure of the paper to w,
// returning the first write error.
func RenderAll(w io.Writer, reports []*SourceReport) error {
	dbp, wiki := GroupReports(reports)
	var firstErr error
	check := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	section := func(title string) {
		_, err := io.WriteString(w, "\n== "+title+" ==\n")
		check(err)
	}
	section("Table 2: queries in the logs")
	check(RenderTable2(w, reports))
	section("Figure 3: triple patterns per query")
	check(RenderFigure3(w, reports))
	section("Table 3: feature usage (DBpedia-BritM)")
	check(RenderTable3(w, dbp))
	section("Table 3: feature usage (Wikidata)")
	check(RenderTable3(w, wiki))
	section("Table 4: And/Filter operator sets (DBpedia-BritM)")
	check(RenderOperatorSets(w, dbp, Table4Rows))
	section("Table 5: And/Filter/2RPQ operator sets (Wikidata)")
	check(RenderOperatorSets(w, wiki, Table5Rows))
	section("Table 6: hypertree width and free-connex acyclicity (DBpedia-BritM)")
	check(RenderTable6(w, dbp))
	section("Table 7: shape analysis of graph-CQ+F queries (DBpedia-BritM)")
	check(RenderTable7(w, dbp))
	section("Table 8: property path types (Wikidata)")
	check(RenderTable8(w, wiki))
	section("Section 9.4: well-designed patterns")
	check(RenderSection94(w, dbp))
	check(RenderSection94(w, wiki))
	section("Section 9.6: property path tractability")
	check(RenderSection96(w, wiki))
	return firstErr
}
