// Command rwdanalyze runs the SHARQL-style analysis pipeline over a
// user-supplied corpus: a SPARQL log (one query per line), an XML corpus
// (one document per line), a DTD corpus, a JSON Schema corpus, or an XPath
// corpus — and prints the corresponding tables of the paper.
//
// Usage:
//
//	rwdgen -kind sparql -source WikiRobot/OK -n 5000 | rwdanalyze -kind sparql
//	rwdanalyze -kind sparql -file queries.log
//	rwdanalyze -kind xml -file corpus.txt
//	rwdanalyze -kind sparql -store-dir ./corpus.store -corpus wikidata-logs
//	rwdanalyze -kind rdf -store-dir ./corpus.store -corpus dbpedia
//
// With -store-dir the input comes from a persistent corpus store
// (built by rwdstore or POST /v1/corpora) instead of a file: kind
// sparql reads a log corpus's committed lines, and kind rdf runs the
// Section 7.1 RDF analyses over a triples corpus. A missing or corrupt
// store is exit code 3 — distinct from usage errors (2), which include
// a corpus of the wrong kind for -kind, and I/O errors (1) — and never
// silently falls back to regeneration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/jsonschema"
	"repro/internal/obs"
	"repro/internal/schemastudy"
	"repro/internal/store"
	"repro/internal/textio"
	"repro/internal/xmllite"
	"repro/internal/xpath"
)

var kinds = map[string]bool{
	"sparql": true, "xml": true, "dtd": true, "jsonschema": true, "xpath": true, "rdf": true,
}

// exitBadStore is the exit code for a missing or corrupt -store-dir:
// callers scripting the CLI can tell "fix the store" (3) apart from
// "fix the invocation" (2) and ordinary I/O failures (1).
const exitBadStore = 3

// corpusExit is the exit code for an error reading a stored corpus: a
// corpus of the other kind (-kind rdf on a log corpus, -kind sparql on
// a triples corpus) is a usage error, anything else a bad store.
func corpusExit(err error) int {
	if errors.Is(err, store.ErrWrongKind) {
		return 2
	}
	return exitBadStore
}

func main() {
	kind := flag.String("kind", "sparql", "corpus kind: sparql|xml|dtd|jsonschema|xpath|rdf")
	file := flag.String("file", "-", "input file; '-' reads stdin")
	name := flag.String("name", "corpus", "corpus name for the reports")
	storeDir := flag.String("store-dir", "", "read the corpus from the persistent store at this directory instead of -file")
	corpusName := flag.String("corpus", "", "corpus name inside -store-dir (required with -store-dir)")
	workers := flag.Int("workers", 0, "analysis workers for -kind sparql; 0 = one per CPU, 1 = sequential")
	trace := flag.String("trace", "", "dump the pipeline span tree after the run: '-' writes stderr, anything else is a file path; empty disables")
	flag.Parse()

	// Validate the kind before touching the input: feeding a huge log to
	// an unknown analyzer should fail fast, not after reading it all.
	if !kinds[*kind] {
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if *kind == "rdf" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "kind rdf analyzes a stored triples corpus: -store-dir and -corpus are required")
		os.Exit(2)
	}
	if *storeDir != "" && *corpusName == "" {
		fmt.Fprintln(os.Stderr, "-store-dir requires -corpus")
		os.Exit(2)
	}

	// With -trace the whole analysis runs under a root span; the sparql
	// pipeline is instrumented down to per-shard ingest spans.
	ctx := context.Background()
	var root *obs.Span
	if *trace != "" {
		ctx, root = (&obs.Tracer{}).StartRoot(ctx, "rwdanalyze")
		defer func() {
			root.Finish()
			obs.DumpTree(*trace, root.Tree())
		}()
	}

	var lines []string
	if *storeDir != "" {
		// OpenExisting refuses to create a store: pointing -store-dir at
		// the wrong directory must fail loudly, not regenerate silently.
		st, err := store.OpenExisting(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rwdanalyze: store at %s is unusable: %v\n", *storeDir, err)
			os.Exit(exitBadStore)
		}
		defer st.Close()
		switch *kind {
		case "rdf":
			analyzeStoredGraph(ctx, st, *corpusName)
			return
		case "sparql":
			if lines, err = st.LogLines(ctx, *corpusName); err != nil {
				fmt.Fprintf(os.Stderr, "rwdanalyze: reading corpus %q: %v\n", *corpusName, err)
				os.Exit(corpusExit(err))
			}
		default:
			fmt.Fprintf(os.Stderr, "kind %q cannot read from a store (only sparql and rdf corpora persist)\n", *kind)
			os.Exit(2)
		}
	} else {
		var in io.Reader = os.Stdin
		if *file != "-" {
			f, err := os.Open(*file)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		}
		var err error
		if lines, err = textio.ReadLines(in); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	switch *kind {
	case "sparql":
		rep := core.AnalyzeQueriesCtx(ctx, *name, lines, *workers)
		if err := core.RenderAll(os.Stdout, []*core.SourceReport{rep}); err != nil {
			fmt.Fprintln(os.Stderr, "render:", err)
			os.Exit(1)
		}
	case "xml":
		res := xmllite.RunStudy(lines)
		fmt.Printf("documents: %d; well-formed: %d (%.1f%%); top-3 error share: %.1f%%\n",
			res.Total, res.WellFormed, 100*res.WellFormedRate(), 100*res.TopThreeRate)
		for _, cat := range res.Categories() {
			fmt.Printf("  %-24s %d\n", cat.String(), res.ByCategory[cat])
		}
	case "dtd":
		rep := schemastudy.AnalyzeDTDs(lines)
		fmt.Printf("DTDs: %d (parse errors %d); recursive: %d; depths: %s\n",
			rep.Total, rep.ParseErrors, rep.Recursive, schemastudy.DescribeDepths(rep.MaxDepths))
		fmt.Printf("expressions: %d; CHARE %.1f%%; SORE %.1f%%; deterministic %.1f%%\n",
			rep.Expressions, 100*rep.CHARERate(), 100*rep.SORERate(),
			100*float64(rep.Deterministic)/float64(max(rep.Expressions, 1)))
	case "jsonschema":
		rep := jsonschema.RunStudy(lines)
		fmt.Printf("schemas: %d; recursive: %d; depths: %s; negation: %d; schema-full: %d\n",
			rep.Total, rep.Recursive, schemastudy.DescribeDepths(rep.Depths),
			rep.NegationUse, rep.SchemaFull)
	case "xpath":
		res := xpath.RunStudy(lines)
		fmt.Printf("queries: %d (parse errors %d); median size %d; tree patterns %d (%.1f%%)\n",
			res.Total, res.ParseErrors, res.SizeQuantile(0.5), res.TreePatterns,
			100*float64(res.TreePatterns)/float64(max(res.Total, 1)))
	}
}

// analyzeStoredGraph runs the Section 7.1 RDF analyses over a stored
// triples corpus and prints their summary, as rwdbench -experiment
// rdfstats does.
func analyzeStoredGraph(ctx context.Context, st *store.Store, corpus string) {
	stats, err := st.RDFStats(ctx, corpus)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rwdanalyze: corpus %q: %v\n", corpus, err)
		os.Exit(corpusExit(err))
	}
	if err := stats.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "render:", err)
		os.Exit(1)
	}
}
