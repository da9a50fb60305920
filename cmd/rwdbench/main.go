// Command rwdbench regenerates the tables and figures of "Towards Theory
// for Real-World Data" (Martens, PODS 2022) from synthetic corpora pushed
// through the real analysis pipeline.
//
// Usage:
//
//	rwdbench -experiment all [-scale 10000] [-seed 1]
//	rwdbench -experiment table1|table2|table3|table4|table5|table6|table7|table8
//	rwdbench -experiment figure3|xmlquality|dtdcorpus|xsdtypes|jsonschema|xpath|rdfstats|welldesigned|tractability
//
// -scale is the corpus scale divisor for the log-derived experiments:
// 1000 generates 1:1000 of the paper's 558M queries (≈ 558k), the default
// 10000 generates ≈ 56k. An unknown -experiment exits 2 before any
// corpus is generated.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/edtd"
	"repro/internal/jsonschema"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/schemastudy"
	"repro/internal/xmllite"
	"repro/internal/xpath"
)

// study is what an experiment renders from: the output, the flags and,
// for the log-derived experiments, the analyzed query-log corpus.
type study struct {
	w          *errWriter
	seed       int64
	graphScale float64
	reports    []*core.SourceReport
	dbp, wiki  *core.SourceReport
}

// errWriter keeps the first write error and fails every later write
// with it, so experiments print without checking each call and main
// reports one error at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// experiments lists every -experiment name in the order "all" runs them;
// logs marks those that need the generated query-log corpus. Each writes
// to s.w, whose first write error main reports.
var experiments = []struct {
	name string
	logs bool
	run  func(*study)
}{
	{"table1", false, func(s *study) { core.RenderTable1(s.w, s.seed, s.graphScale) }},
	{"table2", true, func(s *study) { core.RenderTable2(s.w, s.reports) }},
	{"figure3", true, func(s *study) { core.RenderFigure3(s.w, s.reports) }},
	{"table3", true, func(s *study) {
		core.RenderTable3(s.w, s.dbp)
		fmt.Fprintln(s.w)
		core.RenderTable3(s.w, s.wiki)
	}},
	{"table4", true, func(s *study) { core.RenderOperatorSets(s.w, s.dbp, core.Table4Rows) }},
	{"table5", true, func(s *study) { core.RenderOperatorSets(s.w, s.wiki, core.Table5Rows) }},
	{"table6", true, func(s *study) { core.RenderTable6(s.w, s.dbp) }},
	{"table7", true, func(s *study) { core.RenderTable7(s.w, s.dbp) }},
	{"table8", true, func(s *study) { core.RenderTable8(s.w, s.wiki) }},
	{"welldesigned", true, func(s *study) {
		core.RenderSection94(s.w, s.dbp)
		core.RenderSection94(s.w, s.wiki)
	}},
	{"tractability", true, func(s *study) { core.RenderSection96(s.w, s.wiki) }},
	{"xmlquality", false, runXMLQuality},
	{"dtdcorpus", false, runDTDCorpus},
	{"xsdtypes", false, runXSDTypes},
	{"jsonschema", false, runJSONSchema},
	{"xpath", false, runXPath},
	{"rdfstats", false, runRDFStats},
}

func main() {
	experiment := flag.String("experiment", "all", "which table/figure to regenerate")
	scale := flag.Int("scale", 10000, "corpus scale divisor for log experiments")
	seed := flag.Int64("seed", 1, "generator seed")
	graphScale := flag.Float64("graphscale", 0.2, "graph size factor for Table 1")
	workers := flag.Int("workers", 0, "analysis workers for the log pipeline; 0 = one per CPU, 1 = sequential")
	trace := flag.String("trace", "", "dump the log-pipeline span tree after the run: '-' writes stderr, anything else is a file path; empty disables")
	flag.Parse()

	names := []string{"all"}
	known := *experiment == "all"
	needLogs := known
	for _, e := range experiments {
		names = append(names, e.name)
		if e.name == *experiment {
			known, needLogs = true, e.logs
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *experiment, strings.Join(names, ", "))
		os.Exit(2)
	}

	s := &study{w: &errWriter{w: os.Stdout}, seed: *seed, graphScale: *graphScale}
	if needLogs {
		ctx := context.Background()
		var root *obs.Span
		if *trace != "" {
			ctx, root = (&obs.Tracer{}).StartRoot(ctx, "rwdbench.logstudy")
		}
		fmt.Fprintf(os.Stderr, "generating and analyzing log corpus at scale 1:%d …\n", *scale)
		s.reports = core.RunLogStudy(ctx, core.Config{Workers: *workers, ScaleDiv: *scale, Seed: *seed})
		if root != nil {
			root.Finish()
			obs.DumpTree(*trace, root.Tree())
		}
	}
	s.dbp, s.wiki = core.GroupReports(s.reports)

	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		fmt.Fprintf(s.w, "\n==== %s ====\n", strings.ToUpper(e.name))
		e.run(s)
	}
	if s.w.err != nil {
		fmt.Fprintln(os.Stderr, "render:", s.w.err)
		os.Exit(1)
	}
}

func runXMLQuality(s *study) {
	g := xmllite.DefaultCorpusGen()
	r := rand.New(rand.NewSource(s.seed))
	docs := make([]string, 10000)
	for i := range docs {
		docs[i] = g.Document(r)
	}
	res := xmllite.RunStudy(docs)
	fmt.Fprintf(s.w, "documents: %d\nwell-formed: %d (%.1f%%; paper: 85%%)\n",
		res.Total, res.WellFormed, 100*res.WellFormedRate())
	fmt.Fprintf(s.w, "top-3 error categories cover %.1f%% of errors (paper: 79.9%%)\n", 100*res.TopThreeRate)
	for _, cat := range res.Categories() {
		fmt.Fprintf(s.w, "  %-24s %d\n", cat.String(), res.ByCategory[cat])
	}
}

func runDTDCorpus(s *study) {
	g := schemastudy.DefaultDTDGen()
	r := rand.New(rand.NewSource(s.seed))
	rep := schemastudy.AnalyzeDTDs(g.Corpus(r, 1000))
	fmt.Fprintf(s.w, "DTDs: %d; recursive: %d (%.1f%%; Choi: 35/60 = 58%%)\n",
		rep.Total, rep.Recursive, 100*float64(rep.Recursive)/float64(rep.Total))
	fmt.Fprintf(s.w, "non-recursive max document depths: %s (Choi: up to 20)\n",
		schemastudy.DescribeDepths(rep.MaxDepths))
	fmt.Fprintf(s.w, "expressions: %d; CHAREs: %.1f%% (paper: >92%%); SOREs: %.1f%% (paper: >99%%)\n",
		rep.Expressions, 100*rep.CHARERate(), 100*rep.SORERate())
	fmt.Fprintf(s.w, "deterministic: %.1f%%; max parse depth: %d (Choi: 1..9); ANY uses: %d\n",
		100*float64(rep.Deterministic)/float64(rep.Expressions), rep.MaxParseDepth, rep.ANYUses)
}

func runXSDTypes(s *study) {
	g := schemastudy.DefaultXSDGen()
	r := rand.New(rand.NewSource(s.seed))
	xs := make([]*edtd.EDTD, 30)
	for i := range xs {
		xs[i] = g.Schema(r)
	}
	rep := schemastudy.AnalyzeXSDs(xs)
	fmt.Fprintf(s.w, "XSDs: %d; structurally DTD-expressible: %d (Bex et al.: 25/30)\n", rep.Total, rep.DTDExpressible)
	fmt.Fprintf(s.w, "parent/grandparent-typed: %d; single-type: %d\n", rep.DependencyDepth12, rep.SingleType)
}

func runJSONSchema(s *study) {
	g := schemastudy.DefaultJSONSchemaGen()
	r := rand.New(rand.NewSource(s.seed))
	rep := jsonschema.RunStudy(g.Corpus(r, 1000))
	fmt.Fprintf(s.w, "schemas: %d; recursive: %d (Maiwald: 26/159)\n", rep.Total, rep.Recursive)
	fmt.Fprintf(s.w, "non-recursive depths: %s (paper: 3-43, avg 11)\n", schemastudy.DescribeDepths(rep.Depths))
	fmt.Fprintf(s.w, "negation: %d (%.1f%%; Baazizi: 2.6%%); schema-full: %d (Maiwald: 8/159)\n",
		rep.NegationUse, 100*float64(rep.NegationUse)/float64(rep.Total), rep.SchemaFull)
}

func runXPath(s *study) {
	g := xpath.DefaultGen()
	r := rand.New(rand.NewSource(s.seed))
	res := xpath.RunStudy(g.Corpus(r, 20000))
	fmt.Fprintf(s.w, "queries: %d; median size: %d (Baelde: majority ≤ 13); max size: %d; power-law alpha: %.2f\n",
		res.Total, res.SizeQuantile(0.5), res.SizeQuantile(1.0), res.PowerLawAlpha())
	fmt.Fprintf(s.w, "axis users (child %d, attribute %d, descendant-or-self %d, ancestor %d)\n",
		res.AxisUse[xpath.AxisChild], res.AxisUse[xpath.AxisAttribute],
		res.AxisUse[xpath.AxisDescendantOrSelf], res.AxisUse[xpath.AxisAncestor])
	fmt.Fprintf(s.w, "fragments: positive %.1f%%, core %.1f%%, downward %.1f%%, tree patterns %.1f%% (Pasqua: >90%%)\n",
		pctOf(res.Positive, res.Total), pctOf(res.Core, res.Total),
		pctOf(res.Downward, res.Total), pctOf(res.TreePatterns, res.Total))
}

func runRDFStats(s *study) {
	g := rdf.DefaultGen()
	r := rand.New(rand.NewSource(s.seed))
	st := rdf.ComputeStats(g.Graph(r, 20000))
	st.WriteSummary(s.w)
}

func pctOf(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
