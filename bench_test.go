// Package repro's root benchmark harness: one benchmark per table and
// figure of "Towards Theory for Real-World Data" (see DESIGN.md §4 for the
// experiment index, and EXPERIMENTS.md for paper-vs-measured numbers).
// Each benchmark regenerates its table through the real pipeline and
// reports domain-specific metrics alongside ns/op.
package repro

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/chare"
	"repro/internal/core"
	"repro/internal/determinism"
	"repro/internal/dtd"
	"repro/internal/edtd"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/jsonschema"
	"repro/internal/kore"
	"repro/internal/loggen"
	"repro/internal/propertypath"
	"repro/internal/rdf"
	"repro/internal/reduction"
	"repro/internal/regex"
	"repro/internal/schemastudy"
	"repro/internal/sparql"
	"repro/internal/tree"
	"repro/internal/xmllite"
	"repro/internal/xpath"
)

// benchScale is the corpus scale divisor for log-derived benchmarks
// (1:200000 of the paper's 558M queries ≈ 3.2k queries per run, so the
// full suite stays laptop-fast; rwdbench regenerates larger corpora).
const benchScale = 200000

// BenchmarkTable1Treewidth regenerates Table 1: treewidth bounds on the
// five synthetic dataset analogues.
func BenchmarkTable1Treewidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ds := range graphgen.Table1Datasets(42, 0.12) {
			lb, ub := graph.Bounds(ds.Graph)
			if lb > ub {
				b.Fatalf("%s: inverted bounds", ds.Name)
			}
		}
	}
	core.RenderTable1(io.Discard, 42, 0.12)
}

func runLogStudy(b *testing.B) []*core.SourceReport {
	b.Helper()
	var reports []*core.SourceReport
	for i := 0; i < b.N; i++ {
		reports = core.RunLogStudy(context.Background(), core.Config{Workers: 1, ScaleDiv: benchScale, Seed: 1})
	}
	return reports
}

// BenchmarkLogStudyIngest measures end-to-end corpus ingest throughput
// (generation + parsing + dedup + full battery) for the sequential
// reference (one worker) and sharded analysis. The queries/s metric is
// the acceptance number: 4 workers must sustain ≥ 2× the sequential
// throughput, while producing byte-identical reports (see
// TestRunLogStudyParallelMatchesSequential).
func BenchmarkLogStudyIngest(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				reports := core.RunLogStudy(context.Background(), core.Config{
					Workers: workers, ScaleDiv: benchScale, Seed: 1,
				})
				total = 0
				for _, r := range reports {
					total += r.Total
				}
			}
			b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkAnalyzeUnit times the core of one corpus-bulk analyze
// request with no server in the way: 500 loggen DBpedia17 queries at
// seed 11, analyzed at 1 and 2 workers.
func BenchmarkAnalyzeUnit(b *testing.B) {
	var src loggen.Source
	for _, s := range Sources() {
		if s.Name == "DBpedia17" {
			src = s
		}
	}
	g := loggen.NewGen(src, 11)
	queries := make([]string, 500)
	for i := range queries {
		queries[i] = g.Next()
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.AnalyzeQueriesCtx(context.Background(), "unit", queries, workers)
			}
		})
	}
}

// BenchmarkTable2LogCounts regenerates Table 2: Total/Valid/Unique per log
// source, end to end (generation + parsing + dedup).
func BenchmarkTable2LogCounts(b *testing.B) {
	reports := runLogStudy(b)
	var t, v, u int
	for _, r := range reports {
		t += r.Total
		v += r.Valid
		u += r.Unique
	}
	b.ReportMetric(float64(v)/float64(t)*100, "%valid")
	b.ReportMetric(float64(u)/float64(v)*100, "%unique")
	core.RenderTable2(io.Discard, reports)
}

// BenchmarkFigure3TripleDistribution regenerates Figure 3.
func BenchmarkFigure3TripleDistribution(b *testing.B) {
	reports := runLogStudy(b)
	merged := core.Merge("all", reports)
	le1 := merged.TripleBuckets[0].V + merged.TripleBuckets[1].V
	le2 := le1 + merged.TripleBuckets[2].V
	b.ReportMetric(float64(le1)/float64(merged.CountedV)*100, "%≤1triple")
	b.ReportMetric(float64(le2)/float64(merged.CountedV)*100, "%≤2triples")
	core.RenderFigure3(io.Discard, reports)
}

// BenchmarkTable3Features regenerates Table 3 for both groups.
func BenchmarkTable3Features(b *testing.B) {
	reports := runLogStudy(b)
	dbp, wiki := core.GroupReports(reports)
	if c := dbp.Features[sparql.FFilter]; c != nil {
		b.ReportMetric(float64(c.V)/float64(dbp.Valid)*100, "%dbp-filter")
	}
	if c := wiki.Features[sparql.FPropertyPath]; c != nil {
		b.ReportMetric(float64(c.V)/float64(wiki.Valid)*100, "%wiki-pp")
	}
	core.RenderTable3(io.Discard, dbp)
	core.RenderTable3(io.Discard, wiki)
}

// BenchmarkTable4OperatorSets regenerates Table 4 (DBpedia–BritM CQ+F).
func BenchmarkTable4OperatorSets(b *testing.B) {
	reports := runLogStudy(b)
	dbp, _ := core.GroupReports(reports)
	sub := 0
	for _, name := range core.Table4Rows {
		if c := dbp.OperatorSets[name]; c != nil {
			sub += c.V
		}
	}
	b.ReportMetric(float64(sub)/float64(dbp.Valid)*100, "%CQ+F")
	core.RenderOperatorSets(io.Discard, dbp, core.Table4Rows)
}

// BenchmarkTable5OperatorSets regenerates Table 5 (Wikidata C2RPQ+F).
func BenchmarkTable5OperatorSets(b *testing.B) {
	reports := runLogStudy(b)
	_, wiki := core.GroupReports(reports)
	sub := 0
	for _, name := range core.Table5Rows {
		if c := wiki.OperatorSets[name]; c != nil {
			sub += c.V
		}
	}
	b.ReportMetric(float64(sub)/float64(wiki.Valid)*100, "%C2RPQ+F")
	core.RenderOperatorSets(io.Discard, wiki, core.Table5Rows)
}

// BenchmarkTable6Hypertree regenerates Table 6 (FCA + htw rows).
func BenchmarkTable6Hypertree(b *testing.B) {
	reports := runLogStudy(b)
	dbp, _ := core.GroupReports(reports)
	if dbp.CQF.Total.V > 0 {
		b.ReportMetric(float64(dbp.CQF.FCA.V)/float64(dbp.CQF.Total.V)*100, "%FCA")
		b.ReportMetric(float64(dbp.CQF.Htw2.V)/float64(dbp.CQF.Total.V)*100, "%htw≤2")
	}
	core.RenderTable6(io.Discard, dbp)
}

// BenchmarkTable7Shapes regenerates Table 7 (cumulative shape analysis).
func BenchmarkTable7Shapes(b *testing.B) {
	reports := runLogStudy(b)
	dbp, _ := core.GroupReports(reports)
	if dbp.GraphCQF.V > 0 {
		cum := 0
		for lvl := core.ShapeNoEdge; lvl <= core.ShapeStar; lvl++ {
			cum += dbp.ShapeWith[lvl].V
		}
		b.ReportMetric(float64(cum)/float64(dbp.GraphCQF.V)*100, "%≤star")
	}
	core.RenderTable7(io.Discard, dbp)
}

// BenchmarkTable8PropertyPaths regenerates Table 8 (PP types, Wikidata).
func BenchmarkTable8PropertyPaths(b *testing.B) {
	reports := runLogStudy(b)
	_, wiki := core.GroupReports(reports)
	if wiki.PPTotal.V > 0 {
		if c := wiki.PPRows["a*"]; c != nil {
			b.ReportMetric(float64(c.V)/float64(wiki.PPTotal.V)*100, "%a*")
		}
		b.ReportMetric(float64(wiki.NonSTE.V)/float64(wiki.PPTotal.V)*100, "%non-STE")
	}
	core.RenderTable8(io.Discard, wiki)
}

// --- Theorems 4.4/4.5: the complexity landscape as ablation benches -----

func benchContainment(b *testing.B, frag []chare.FactorType, wantMethod chare.Method) {
	r := rand.New(rand.NewSource(7))
	alpha := []string{"a", "b", "c", "d"}
	type pair struct{ c1, c2 *chare.CHARE }
	pairs := make([]pair, 64)
	for i := range pairs {
		pairs[i] = pair{
			chare.RandomCHARE(r, alpha, 4+r.Intn(6), frag...),
			chare.RandomCHARE(r, alpha, 4+r.Intn(6), frag...),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, m := chare.Contains(p.c1, p.c2)
		if m != wantMethod {
			b.Fatalf("method %v, want %v", m, wantMethod)
		}
	}
}

// BenchmarkCHAREContainmentBlocks: RE(a,a+), PTIME (Thm 4.4(a)).
func BenchmarkCHAREContainmentBlocks(b *testing.B) {
	benchContainment(b, []chare.FactorType{chare.TypeA, chare.TypeAPlus}, chare.MethodBlocks)
}

// BenchmarkCHAREContainmentFixedLen: RE(a,(+a)), PTIME (Thm 4.4(b)).
func BenchmarkCHAREContainmentFixedLen(b *testing.B) {
	benchContainment(b, []chare.FactorType{chare.TypeA, chare.TypeDisj}, chare.MethodFixedLen)
}

// BenchmarkCHAREContainmentGreedy: subsequence-closed fragments (Abdulla
// et al.), PTIME.
func BenchmarkCHAREContainmentGreedy(b *testing.B) {
	benchContainment(b, []chare.FactorType{chare.TypeAQuestion, chare.TypeAStar, chare.TypeDisjStar}, chare.MethodGreedy)
}

// BenchmarkCHAREContainmentAutomata: the general coNP/PSPACE regime
// (Thm 4.4(c–g)) via the automata construction — the ablation baseline.
func BenchmarkCHAREContainmentAutomata(b *testing.B) {
	benchContainment(b, []chare.FactorType{chare.TypeA, chare.TypeAQuestion, chare.TypeDisjPlus}, chare.MethodAutomata)
}

// BenchmarkCHAREIntersection: PTIME fragments vs the product construction.
func BenchmarkCHAREIntersectionBlocks(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	cs := make([]*chare.CHARE, 3)
	base := chare.RandomCHARE(r, []string{"a", "b"}, 6, chare.TypeA, chare.TypeAPlus)
	for i := range cs {
		cs[i] = base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, m := chare.IntersectionNonEmpty(cs...); !ok || m != chare.MethodBlocks {
			b.Fatal("self-intersection must be non-empty via blocks")
		}
	}
}

// BenchmarkKOREDeterminize exercises the |Σ|·2^k DFA bound of Thm 4.6(a).
func BenchmarkKOREDeterminize(b *testing.B) {
	g := regex.DefaultGen([]string{"a", "b", "c"})
	r := rand.New(rand.NewSource(3))
	exprs := make([]*regex.Expr, 32)
	for i := range exprs {
		exprs[i] = g.Random(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := exprs[i%len(exprs)]
		states, bound, ok := kore.DeterminizeWithinBound(e)
		if !ok {
			b.Fatalf("bound violated: %d > %d for %s", states, bound, e)
		}
	}
}

// BenchmarkAppendixAReduction builds and decides the coNP-hardness
// instances of Appendix A.
func BenchmarkAppendixAReduction(b *testing.B) {
	phi := &reduction.DNF{Vars: 4, Clauses: []reduction.Clause{{1, -2, 3}, {-1, 3, -4}, {2, -3, 4}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1, e2 := phi.ToOptContainment()
		if automata.Contains(e1, e2) != phi.Valid() {
			b.Fatal("reduction incorrect")
		}
	}
}

// --- the tree-side studies ----------------------------------------------

// BenchmarkXMLQualityStudy replays the Grijzenhout & Marx study (§3.1).
func BenchmarkXMLQualityStudy(b *testing.B) {
	g := xmllite.DefaultCorpusGen()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(42))
		docs := make([]string, 2000)
		for j := range docs {
			docs[j] = g.Document(r)
		}
		res := xmllite.RunStudy(docs)
		b.ReportMetric(res.WellFormedRate()*100, "%wf")
		b.ReportMetric(res.TopThreeRate*100, "%top3")
	}
}

// BenchmarkDTDCorpusStudy replays Choi's and Bex et al.'s DTD studies
// (§4.1–4.2).
func BenchmarkDTDCorpusStudy(b *testing.B) {
	g := schemastudy.DefaultDTDGen()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(4))
		rep := schemastudy.AnalyzeDTDs(g.Corpus(r, 300))
		b.ReportMetric(rep.CHARERate()*100, "%CHARE")
		b.ReportMetric(rep.SORERate()*100, "%SORE")
	}
}

// BenchmarkXSDTypeStudy replays the 25/30 complex-type study (§4.4).
func BenchmarkXSDTypeStudy(b *testing.B) {
	g := schemastudy.DefaultXSDGen()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(11))
		xs := make([]*edtd.EDTD, 30)
		for j := range xs {
			xs[j] = g.Schema(r)
		}
		rep := schemastudy.AnalyzeXSDs(xs)
		b.ReportMetric(float64(rep.DTDExpressible), "dtd-expressible")
	}
}

// BenchmarkJSONSchemaStudy replays Maiwald et al. and Baazizi et al.
// (§4.5).
func BenchmarkJSONSchemaStudy(b *testing.B) {
	g := schemastudy.DefaultJSONSchemaGen()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(2))
		rep := jsonschema.RunStudy(g.Corpus(r, 300))
		b.ReportMetric(float64(rep.Recursive)/float64(rep.Total)*100, "%recursive")
		b.ReportMetric(rep.AverageDepth(), "avg-depth")
	}
}

// BenchmarkXPathStudy replays Baelde et al. and Pasqua (§5).
func BenchmarkXPathStudy(b *testing.B) {
	g := xpath.DefaultGen()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		res := xpath.RunStudy(g.Corpus(r, 3000))
		b.ReportMetric(float64(res.SizeQuantile(0.5)), "median-size")
		b.ReportMetric(float64(res.TreePatterns)/float64(res.Total)*100, "%twig")
	}
}

// BenchmarkRDFStructureStudy replays the §7.1 dataset analyses.
func BenchmarkRDFStructureStudy(b *testing.B) {
	g := rdf.DefaultGen()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(7))
		st := rdf.ComputeStats(g.Graph(r, 5000))
		b.ReportMetric(st.SharedListSubjectRate*100, "%shared-lists")
		b.ReportMetric(st.InDegree.Alpha, "alpha")
	}
}

// BenchmarkPropertyPathTractability measures the §9.6 classifier stack.
func BenchmarkPropertyPathTractability(b *testing.B) {
	reports := runLogStudy(b)
	_, wiki := core.GroupReports(reports)
	if wiki.PPTotal.V > 0 {
		b.ReportMetric(float64(wiki.NonCtract.V), "non-Ctract")
		b.ReportMetric(float64(wiki.NonTtract.V), "non-Ttract")
	}
}

// BenchmarkSPARQLParser isolates the parser (the pipeline's hot path).
func BenchmarkSPARQLParser(b *testing.B) {
	src := Sources()[0]
	g := loggen.NewGen(src, 5)
	queries := make([]string, 512)
	for i := range queries {
		queries[i] = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sparql.Parse(queries[i%len(queries)])
	}
}

// Sources re-exports loggen.Sources for the parser bench.
func Sources() []loggen.Source { return loggen.Sources() }

// BenchmarkDeterminizationBlowUp measures the RE → DFA blow-up family of
// Section 4.2.1 ((a+b)* a (a+b)ⁿ needs ≥ 2ⁿ⁺¹ DFA states).
func BenchmarkDeterminizationBlowUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, states := determinism.MeasureFamily(10)
		if states < 1<<11 {
			b.Fatal("blow-up family collapsed")
		}
	}
}

// BenchmarkDTDContainment exercises the Section 4.2.2 reduction from DTD
// containment to regular-expression containment.
func BenchmarkDTDContainment(b *testing.B) {
	g := schemastudy.DefaultDTDGen()
	r := rand.New(rand.NewSource(21))
	var pairs [][2]*dtd.DTD
	for len(pairs) < 16 {
		d1, err1 := dtd.ParseText(g.DTD(r), "")
		d2, err2 := dtd.ParseText(g.DTD(r), "")
		if err1 != nil || err2 != nil {
			continue
		}
		pairs = append(pairs, [2]*dtd.DTD{d1, d2})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_ = dtd.Contains(p[0], p[1])
	}
}

// BenchmarkJSONSchemaContainment measures the Section 4.5 containment
// checker (structural subsumption + randomized refutation).
func BenchmarkJSONSchemaContainment(b *testing.B) {
	g := schemastudy.DefaultJSONSchemaGen()
	r := rand.New(rand.NewSource(23))
	var schemas []*jsonschema.Schema
	for len(schemas) < 16 {
		s, err := jsonschema.Parse(g.Schema(r))
		if err == nil {
			schemas = append(schemas, s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1 := schemas[i%len(schemas)]
		s2 := schemas[(i+1)%len(schemas)]
		_, _ = jsonschema.Contains(s1, s2, 20, int64(i))
	}
}

// BenchmarkStreamingDTDValidation measures the constant-memory streaming
// validation of Section 4.1 (Segoufin & Vianu regime).
func BenchmarkStreamingDTDValidation(b *testing.B) {
	d := dtd.New().
		AddRule("persons", regex.MustParse("person*")).
		AddRule("person", regex.MustParse("name birthplace")).
		AddRule("birthplace", regex.MustParse("city state country?")).
		AddStart("persons")
	// a long flat document: memory must stay at depth ≤ 4
	root := tree.New("persons")
	for i := 0; i < 1000; i++ {
		p := tree.New("person")
		p.Add(tree.New("name"))
		bp := tree.New("birthplace")
		bp.Add(tree.New("city"), tree.New("state"))
		p.Add(bp)
		root.Add(p)
	}
	events := dtd.Events(root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := dtd.NewStreamValidator(d)
		for _, ev := range events {
			if err := v.Feed(ev); err != nil {
				b.Fatal(err)
			}
		}
		if v.HighWater > 4 {
			b.Fatalf("streaming memory grew: %d", v.HighWater)
		}
	}
}

// BenchmarkRPQSemantics compares the three evaluation semantics of
// Section 9.6 on a small power-law graph.
func BenchmarkRPQSemantics(b *testing.B) {
	g := rdf.DefaultGen().Graph(rand.New(rand.NewSource(31)), 300)
	p := sparql.MustParsePath("rdf:type/foaf:knows*")
	subjects := g.Subjects()
	b.Run("regular", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			propertypath.Eval(g, p, subjects[i%len(subjects)])
		}
	})
	b.Run("simple-paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			propertypath.EvalSimplePaths(g, p, subjects[i%len(subjects)])
		}
	})
	b.Run("trails", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			propertypath.EvalTrails(g, p, subjects[i%len(subjects)])
		}
	})
}

// BenchmarkSTEDTDContainment measures single-type EDTD containment
// (Section 4.3's reduction to regular-expression containment).
func BenchmarkSTEDTDContainment(b *testing.B) {
	mk := func() *edtd.EDTD {
		return edtd.New().
			AddType("a", "a", regex.MustParse("b + c")).
			AddType("b", "b", regex.MustParse("e d1 f")).
			AddType("c", "c", regex.MustParse("e d2 f")).
			AddType("d1", "d", regex.MustParse("g h1 i")).
			AddType("d2", "d", regex.MustParse("g h2 i")).
			AddType("h1", "h", regex.MustParse("j")).
			AddType("h2", "h", regex.MustParse("k")).
			AddStart("a")
	}
	base, wide := mk(), mk()
	wide.Rules["h1"] = regex.MustParse("j?")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !edtd.Contains(base, wide) || edtd.Contains(wide, base) {
			b.Fatal("containment answers changed")
		}
	}
}
