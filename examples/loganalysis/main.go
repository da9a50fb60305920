// Log analysis: generate a Wikidata-like query log and run the SHARQL-style
// pipeline of Section 9 on it, printing the Table 3/5/8 slices plus the
// paper's running example query.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/propertypath"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparqlalg"
)

func main() {
	// --- the paper's example query (Section 9) --------------------------
	const example = `SELECT ?label ?coord ?subj
WHERE { ?subj wdt:P31/wdt:P279* wd:Q839954 .
        ?subj wdt:P625 ?coord .
        ?subj rdfs:label ?label FILTER(lang(?label)="en") }`
	q := sparql.MustParse(example)
	fmt.Println("example query triple patterns:", q.TripleCount())
	fmt.Println("operator set:", q.Operators().Name())
	for _, pp := range q.PropertyPaths() {
		fmt.Printf("property path %s: type %s, Table 8 row %q, simple-transitive %v\n",
			sparql.PathString(pp), propertypath.TypeString(pp), propertypath.Classify(pp),
			propertypath.IsSimpleTransitive(pp))
	}

	// evaluate it on a toy Wikidata slice
	g := rdf.NewGraph()
	g.Add("wd:Troy", "wdt:P31", "wd:Q22698")        // instance of: park? no — site class
	g.Add("wd:Q22698", "wdt:P279", "wd:Q839954")    // subclass of archaeological site
	g.Add("wd:Troy", "wdt:P625", "\"39.95,26.23\"") // coordinates
	g.Add("wd:Troy", "rdfs:label", "Troy")
	sols, err := sparqlalg.Eval(g, sparql.MustParse(
		`SELECT ?subj ?coord WHERE { ?subj wdt:P31/wdt:P279* wd:Q839954 . ?subj wdt:P625 ?coord }`))
	if err != nil {
		fmt.Println("eval error:", err)
	}
	fmt.Println("archaeological sites found:", sols)
	fmt.Println()

	// --- a Wikidata-like robotic log through the pipeline ---------------
	var robot loggen.Source
	for _, s := range loggen.Sources() {
		if s.Name == "WikiRobot/OK" {
			robot = s
		}
	}
	gen := loggen.NewGen(robot, 42)
	queries := make([]string, 20000)
	for i := range queries {
		queries[i] = gen.Next()
	}
	// shard the stream over 4 workers; the merged report is identical to a
	// sequential ingest of the same stream
	r := core.AnalyzeQueries("WikiRobot/OK (sampled)", queries, 4)
	fmt.Printf("ingested %d queries: %d valid, %d unique\n\n", r.Total, r.Valid, r.Unique)
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "render:", err)
			os.Exit(1)
		}
	}
	check(core.RenderTable3(os.Stdout, r))
	fmt.Println()
	check(core.RenderOperatorSets(os.Stdout, r, core.Table5Rows))
	fmt.Println()
	check(core.RenderTable8(os.Stdout, r))
	fmt.Println()
	check(core.RenderSection96(os.Stdout, r))
}
