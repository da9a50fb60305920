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
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
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

// study is what an experiment renders from: the flags and, for the
// log-derived experiments, the analyzed query-log corpus.
type study struct {
	w          io.Writer
	seed       int64
	graphScale float64
	reports    []*core.SourceReport
	dbp, wiki  *core.SourceReport
}

// printed adapts a study that prints to stdout and cannot fail.
func printed(f func(seed int64)) func(*study) error {
	return func(s *study) error { f(s.seed); return nil }
}

// experiments lists every -experiment name in the order "all" runs them;
// logs marks those that need the generated query-log corpus.
var experiments = []struct {
	name string
	logs bool
	run  func(*study) error
}{
	{"table1", false, func(s *study) error { return core.RenderTable1(s.w, s.seed, s.graphScale) }},
	{"table2", true, func(s *study) error { return core.RenderTable2(s.w, s.reports) }},
	{"figure3", true, func(s *study) error { return core.RenderFigure3(s.w, s.reports) }},
	{"table3", true, func(s *study) error {
		err := core.RenderTable3(s.w, s.dbp)
		fmt.Fprintln(s.w)
		return errors.Join(err, core.RenderTable3(s.w, s.wiki))
	}},
	{"table4", true, func(s *study) error { return core.RenderOperatorSets(s.w, s.dbp, core.Table4Rows) }},
	{"table5", true, func(s *study) error { return core.RenderOperatorSets(s.w, s.wiki, core.Table5Rows) }},
	{"table6", true, func(s *study) error { return core.RenderTable6(s.w, s.dbp) }},
	{"table7", true, func(s *study) error { return core.RenderTable7(s.w, s.dbp) }},
	{"table8", true, func(s *study) error { return core.RenderTable8(s.w, s.wiki) }},
	{"welldesigned", true, func(s *study) error {
		return errors.Join(core.RenderSection94(s.w, s.dbp), core.RenderSection94(s.w, s.wiki))
	}},
	{"tractability", true, func(s *study) error { return core.RenderSection96(s.w, s.wiki) }},
	{"xmlquality", false, printed(runXMLQuality)},
	{"dtdcorpus", false, printed(runDTDCorpus)},
	{"xsdtypes", false, printed(runXSDTypes)},
	{"jsonschema", false, printed(runJSONSchema)},
	{"xpath", false, printed(runXPath)},
	{"rdfstats", false, printed(runRDFStats)},
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

	s := &study{w: os.Stdout, seed: *seed, graphScale: *graphScale}
	if needLogs {
		ctx := context.Background()
		var root *obs.Span
		if *trace != "" {
			ctx, root = (&obs.Tracer{}).StartRoot(ctx, "rwdbench.logstudy")
		}
		cfg := core.Config{Workers: *workers, ScaleDiv: *scale, Seed: *seed}
		if *workers == 1 {
			fmt.Fprintf(os.Stderr, "generating and analyzing log corpus at scale 1:%d (sequential) …\n", *scale)
			s.reports = core.RunLogStudySequentialCtx(ctx, cfg)
		} else {
			n := *workers
			if n <= 0 {
				n = runtime.GOMAXPROCS(0)
			}
			fmt.Fprintf(os.Stderr, "generating and analyzing log corpus at scale 1:%d (%d workers) …\n", *scale, n)
			s.reports = core.RunLogStudyParallelCtx(ctx, cfg)
		}
		if root != nil {
			root.Finish()
			dumpTrace(*trace, root.Tree())
		}
	}
	s.dbp, s.wiki = core.GroupReports(s.reports)

	failed := false
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		fmt.Fprintf(s.w, "\n==== %s ====\n", strings.ToUpper(e.name))
		if err := e.run(s); err != nil {
			fmt.Fprintln(os.Stderr, "render:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func runXMLQuality(seed int64) {
	g := xmllite.DefaultCorpusGen()
	r := rand.New(rand.NewSource(seed))
	docs := make([]string, 10000)
	for i := range docs {
		docs[i] = g.Document(r)
	}
	res := xmllite.RunStudy(docs)
	fmt.Printf("documents: %d\nwell-formed: %d (%.1f%%; paper: 85%%)\n",
		res.Total, res.WellFormed, 100*res.WellFormedRate())
	fmt.Printf("top-3 error categories cover %.1f%% of errors (paper: 79.9%%)\n", 100*res.TopThreeRate)
	cats := make([]xmllite.ErrorCategory, 0, len(res.ByCategory))
	for cat := range res.ByCategory {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool {
		ni, nj := res.ByCategory[cats[i]], res.ByCategory[cats[j]]
		return ni > nj || ni == nj && cats[i].String() < cats[j].String()
	})
	for _, cat := range cats {
		fmt.Printf("  %-24s %d\n", cat.String(), res.ByCategory[cat])
	}
}

func runDTDCorpus(seed int64) {
	g := schemastudy.DefaultDTDGen()
	r := rand.New(rand.NewSource(seed))
	rep := schemastudy.AnalyzeDTDs(g.Corpus(r, 1000))
	fmt.Printf("DTDs: %d; recursive: %d (%.1f%%; Choi: 35/60 = 58%%)\n",
		rep.Total, rep.Recursive, 100*float64(rep.Recursive)/float64(rep.Total))
	fmt.Printf("non-recursive max document depths: %s (Choi: up to 20)\n",
		schemastudy.DescribeDepths(rep.MaxDepths))
	fmt.Printf("expressions: %d; CHAREs: %.1f%% (paper: >92%%); SOREs: %.1f%% (paper: >99%%)\n",
		rep.Expressions, 100*rep.CHARERate(), 100*rep.SORERate())
	fmt.Printf("deterministic: %.1f%%; max parse depth: %d (Choi: 1..9); ANY uses: %d\n",
		100*float64(rep.Deterministic)/float64(rep.Expressions), rep.MaxParseDepth, rep.ANYUses)
}

func runXSDTypes(seed int64) {
	g := schemastudy.DefaultXSDGen()
	r := rand.New(rand.NewSource(seed))
	xs := make([]*edtd.EDTD, 30)
	for i := range xs {
		xs[i] = g.Schema(r)
	}
	rep := schemastudy.AnalyzeXSDs(xs)
	fmt.Printf("XSDs: %d; structurally DTD-expressible: %d (Bex et al.: 25/30)\n", rep.Total, rep.DTDExpressible)
	fmt.Printf("parent/grandparent-typed: %d; single-type: %d\n", rep.DependencyDepth12, rep.SingleType)
}

func runJSONSchema(seed int64) {
	g := schemastudy.DefaultJSONSchemaGen()
	r := rand.New(rand.NewSource(seed))
	rep := jsonschema.RunStudy(g.Corpus(r, 1000))
	fmt.Printf("schemas: %d; recursive: %d (Maiwald: 26/159)\n", rep.Total, rep.Recursive)
	fmt.Printf("non-recursive depths: %s (paper: 3-43, avg 11)\n", schemastudy.DescribeDepths(rep.Depths))
	fmt.Printf("negation: %d (%.1f%%; Baazizi: 2.6%%); schema-full: %d (Maiwald: 8/159)\n",
		rep.NegationUse, 100*float64(rep.NegationUse)/float64(rep.Total), rep.SchemaFull)
}

func runXPath(seed int64) {
	g := xpath.DefaultGen()
	r := rand.New(rand.NewSource(seed))
	res := xpath.RunStudy(g.Corpus(r, 20000))
	fmt.Printf("queries: %d; median size: %d (Baelde: majority ≤ 13); max size: %d; power-law alpha: %.2f\n",
		res.Total, res.SizeQuantile(0.5), res.SizeQuantile(1.0), res.PowerLawAlpha())
	fmt.Printf("axis users (child %d, attribute %d, descendant-or-self %d, ancestor %d)\n",
		res.AxisUse[xpath.AxisChild], res.AxisUse[xpath.AxisAttribute],
		res.AxisUse[xpath.AxisDescendantOrSelf], res.AxisUse[xpath.AxisAncestor])
	fmt.Printf("fragments: positive %.1f%%, core %.1f%%, downward %.1f%%, tree patterns %.1f%% (Pasqua: >90%%)\n",
		pctOf(res.Positive, res.Total), pctOf(res.Core, res.Total),
		pctOf(res.Downward, res.Total), pctOf(res.TreePatterns, res.Total))
}

func runRDFStats(seed int64) {
	g := rdf.DefaultGen()
	r := rand.New(rand.NewSource(seed))
	st := rdf.ComputeStats(g.Graph(r, 20000))
	fmt.Printf("triples: %d, subjects: %d, predicates: %d, objects: %d\n",
		st.Triples, st.Subjects, st.Predicates, st.Objects)
	fmt.Printf("in-degree: max %d, mean %.2f, alpha %.2f (power law; Bachlechner/Strang: max 7739 vs mean 9.56)\n",
		st.InDegree.Max, st.InDegree.Mean, st.InDegree.Alpha)
	fmt.Printf("predicate lists: %d distinct; %.1f%% of subjects share a common list (Fernandez: ≈99%%)\n",
		st.PredicateLists, 100*st.SharedListSubjectRate)
	fmt.Printf("objects per (s,p): %.3f (≈1); subjects per (p,o): %.2f ± %.2f (skewed)\n",
		st.MeanObjectsPerSP, st.MeanSubjectsPerPO, st.StdDevSubjectsPerPO)
	fmt.Printf("|P∩S|/|P∪S| = %.2g, |P∩O|/|P∪O| = %.2g (paper: 0 or 10⁻⁷..10⁻³)\n",
		st.PSOverlap, st.POOverlap)
}

func pctOf(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// dumpTrace renders the span tree to stderr ("-") or the given file.
func dumpTrace(dest string, n *obs.Node) {
	w := io.Writer(os.Stderr)
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return
		}
		defer f.Close()
		w = f
	}
	if err := obs.WriteTree(w, n); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
	}
}
