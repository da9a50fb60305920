package loggen

import (
	"fmt"
	"strings"
)

// Vocabularies. Wikidata-style predicates carry the wdt: prefix the
// Section 9 examples use; the DBpedia group uses dbo:/foaf:/rdfs:.
var (
	wikidataPreds = []string{
		"wdt:P31", "wdt:P279", "wdt:P625", "wdt:P17", "wdt:P131",
		"wdt:P106", "wdt:P569", "wdt:P570", "wdt:P21", "rdfs:label",
	}
	dbpediaPreds = []string{
		"rdf:type", "rdfs:label", "foaf:name", "dbo:birthPlace",
		"dbo:country", "dbo:population", "dbo:author", "dbo:genre",
		"dct:subject", "foaf:homepage",
	}
	wikidataConsts = []string{
		"wd:Q5", "wd:Q146", "wd:Q839954", "wd:Q64", "wd:Q30", "wd:Q90",
	}
	dbpediaConsts = []string{
		"dbr:Berlin", "dbr:Paris", "dbo:Person", "dbo:City", "foaf:Person",
		"dbr:Go_programming_language",
	}
)

// table8Weights are the UNIQUE-column weights of Table 8 for robotic
// Wikidata property paths (aggregated rows). Fresh queries realize the
// Unique distribution; the weighted replay bag in loggen.go replicates the
// iterated types heavily, which reconstitutes the Valid column (a* is
// 9.87% Unique but 50.48% Valid).
var table8Weights = []struct {
	weight float64
	rep    int // replay weight (reconstitutes the Valid column)
	make   func(g *Gen) string
}{
	{9.87, 44, func(g *Gen) string { return g.pred() + "*" }},
	{14.0, 4, func(g *Gen) string { return g.pred() + "/" + g.pred() + "*" }}, // ab*
	{5.96, 4, func(g *Gen) string { return g.pred() + "+" }},                  // aggregated with ab* in Table 8
	{0.48, 8, func(g *Gen) string { return g.pred() + "/" + g.pred() + "*/" + g.pred() + "*" }},
	{0.37, 6, func(g *Gen) string { return "(" + g.pred() + "|" + g.pred() + ")*" }},
	{0.01, 20, func(g *Gen) string { return g.pred() + "/" + g.pred() + "*/" + g.pred() }},
	{0.01, 20, func(g *Gen) string { return g.pred() + "*/" + g.pred() + "*" }},
	{0.03, 4, func(g *Gen) string { return g.pred() + "/" + g.pred() + "/" + g.pred() + "*" }},
	{0.09, 2, func(g *Gen) string { return g.pred() + "?/" + g.pred() + "*" }},
	{0.01, 4, func(g *Gen) string { return "(" + g.pred() + "|" + g.pred() + ")+" }},
	{66.41, 2, func(g *Gen) string { // a1/…/ak sequences, k ≥ 2
		k := 2 + g.r.Intn(3)
		parts := make([]string, k)
		for i := range parts {
			parts[i] = g.pred()
		}
		return strings.Join(parts, "/")
	}},
	{2.70, 8, func(g *Gen) string { return "(" + g.pred() + "|" + g.pred() + ")" }},
	{0.01, 20, func(g *Gen) string { return "(" + g.pred() + "|" + g.pred() + ")?" }},
	{0.04, 2, func(g *Gen) string { return g.pred() + "/" + g.pred() + "?/" + g.pred() + "?" }},
	{0.01, 20, func(g *Gen) string { return "^" + g.pred() }},
	{0.01, 4, func(g *Gen) string { return g.pred() + "/" + g.pred() + "/" + g.pred() + "?" }},
}

func (g *Gen) pred() string {
	if g.Source.Wikidata {
		return wikidataPreds[g.r.Intn(len(wikidataPreds))]
	}
	return dbpediaPreds[g.r.Intn(len(dbpediaPreds))]
}

func (g *Gen) constant() string {
	if g.Source.Wikidata {
		return wikidataConsts[g.r.Intn(len(wikidataConsts))]
	}
	return dbpediaConsts[g.r.Intn(len(dbpediaConsts))]
}

// samplePPType draws a Table 8 type index; a path-using query draws ONE
// type and uses it for all its paths (robotic queries are templated, and
// mixing types per query would dilute the Valid-column shares).
func (g *Gen) samplePPType() int {
	total := 0.0
	for _, w := range table8Weights {
		total += w.weight
	}
	x := g.r.Float64() * total
	for i, w := range table8Weights {
		x -= w.weight
		if x <= 0 {
			return i
		}
	}
	return 0
}

func (g *Gen) propertyPath(typeIdx int) string {
	w := table8Weights[typeIdx]
	g.freshWeight = w.rep
	return w.make(g)
}

// sampleTripleCount draws the number of triple patterns per Figure 3.
func (g *Gen) sampleTripleCount() int {
	if g.r.Float64() < g.Source.BigQueryRate {
		return 100 + g.r.Intn(131)
	}
	w := g.Source.TripleWeights
	total := 0.0
	for _, x := range w {
		total += x
	}
	x := g.r.Float64() * total
	for i, wx := range w {
		x -= wx
		if x <= 0 {
			if i == len(w)-1 {
				return 11 + g.r.Intn(8) // the 11+ bucket
			}
			return i
		}
	}
	return 1
}

// shape identifiers for multi-triple queries, weighted to reproduce the
// cumulative Table 7 (chains and stars dominate; trees rare; treewidth-2
// cycles rarer; a trace of treewidth-3 cliques).
type shape int

const (
	shapeChain shape = iota
	shapeStar
	shapeTree
	shapeCycle  // treewidth 2
	shapeClique // K4: treewidth 3
)

func (g *Gen) sampleShape(n int) shape {
	if n >= 100 {
		// the big templated queries in the logs are star-shaped
		return shapeStar
	}
	x := g.r.Float64()
	switch {
	case x < 0.62:
		return shapeChain
	case x < 0.955:
		return shapeStar
	case x < 0.985:
		return shapeTree
	case n >= 3 && x < 0.9995:
		return shapeCycle
	case n >= 6:
		return shapeClique
	default:
		return shapeTree
	}
}

// fresh builds a new valid query string.
func (g *Gen) fresh() string {
	n := g.sampleTripleCount()
	feat := g.Source.Feat
	r := g.r

	// property paths are a per-QUERY decision (Table 3 counts queries,
	// not triples); real path-using robotic queries are dominated by the
	// And,2RPQ operator set (Table 5), so a path query gets at least two
	// triple patterns most of the time
	usePP := r.Float64() < feat.PropertyPath
	if usePP && n < 2 && r.Float64() < 0.7 {
		n = 2 + r.Intn(2)
	}

	var b strings.Builder
	// query form: mostly SELECT; a few ASK/CONSTRUCT/DESCRIBE
	form := "SELECT"
	switch x := r.Float64(); {
	case x < 0.03:
		form = "ASK"
	case x < 0.05:
		form = "CONSTRUCT"
	case x < 0.055 && !g.Source.Wikidata:
		form = "DESCRIBE"
	}
	if form == "DESCRIBE" {
		fmt.Fprintf(&b, "DESCRIBE %s", g.constant())
		return b.String()
	}

	useGroupBy := r.Float64() < feat.GroupBy
	agg := ""
	if useGroupBy && r.Float64() < 0.15 {
		// most GROUP BY queries project plain variables; aggregates in the
		// SELECT clause are much rarer than grouping itself (Table 3:
		// Group By 2.83% vs Count 0.29% in DBpedia–BritM)
		agg = []string{"COUNT", "COUNT", "COUNT", "AVG", "MIN", "MAX", "SUM"}[r.Intn(7)]
	}

	switch form {
	case "SELECT":
		b.WriteString("SELECT ")
		if r.Float64() < feat.Distinct {
			b.WriteString("DISTINCT ")
		}
		if agg != "" {
			fmt.Fprintf(&b, "?v0 (%s(?v1) AS ?agg) ", agg)
		} else if useGroupBy {
			b.WriteString("?v0 ")
		} else if r.Float64() < 0.3 {
			b.WriteString("* ")
		} else {
			k := 1 + r.Intn(3)
			for i := 0; i < k; i++ {
				fmt.Fprintf(&b, "?v%d ", i)
			}
		}
	case "ASK":
		b.WriteString("ASK ")
	case "CONSTRUCT":
		b.WriteString("CONSTRUCT { ?v0 rdf:type ?v1 } ")
	}
	b.WriteString("WHERE { ")
	g.writeBody(&b, n, usePP, feat)
	b.WriteString("}")

	if useGroupBy {
		b.WriteString(" GROUP BY ?v0")
		if agg != "" && r.Float64() < feat.Having*20 {
			fmt.Fprintf(&b, " HAVING (%s(?v1) > %d)", agg, 1+r.Intn(9))
		}
	}
	if r.Float64() < feat.OrderBy {
		b.WriteString(" ORDER BY ?v0")
	}
	if r.Float64() < feat.Limit {
		fmt.Fprintf(&b, " LIMIT %d", []int{10, 100, 1000}[r.Intn(3)])
		if r.Float64() < feat.Offset/feat.Limit {
			fmt.Fprintf(&b, " OFFSET %d", 10*r.Intn(50))
		}
	}
	return b.String()
}

// probGE2 returns the probability that a query of this source has ≥ 2
// triple patterns; OPTIONAL and UNION need at least two, so their
// per-query marginals are rescaled by it.
func (g *Gen) probGE2() float64 {
	w := g.Source.TripleWeights
	total, ge2 := 0.0, 0.0
	for i, x := range w {
		total += x
		if i >= 2 {
			ge2 += x
		}
	}
	if total == 0 || ge2 == 0 {
		return 1
	}
	return ge2 / total
}

func boost(p, pGE2 float64) float64 {
	q := p / pGE2
	if q > 0.9 {
		return 0.9
	}
	return q
}

// writeBody writes the triples and inner features of the WHERE group.
func (g *Gen) writeBody(b *strings.Builder, n int, usePP bool, feat FeatureRates) {
	r := g.r
	pGE2 := g.probGE2()
	if r.Float64() < feat.Values {
		fmt.Fprintf(b, "VALUES ?v0 { %s %s } ", g.constant(), g.constant())
	}
	triples := g.buildTriples(n, usePP, feat)
	// OPTIONAL and UNION are chosen independently (the paper's marginals —
	// 33%/26% in DBpedia–BritM against only 48% of queries with ≥ 2
	// triples — force them to overlap); with both, the OPTIONAL part nests
	// inside the second UNION branch.
	useUnion := n >= 2 && r.Float64() < boost(feat.Union, pGE2)
	useOpt := n >= 2 && r.Float64() < boost(feat.Optional, pGE2)
	if useUnion {
		k := 1 + r.Intn(len(triples)-1)
		b.WriteString("{ ")
		for _, t := range triples[:k] {
			b.WriteString(t)
			b.WriteString(" . ")
		}
		b.WriteString("} UNION { ")
		branch := triples[k:]
		nOpt := 0
		if useOpt {
			nOpt = 1
		}
		for _, t := range branch[:len(branch)-nOpt] {
			b.WriteString(t)
			b.WriteString(" . ")
		}
		for _, t := range branch[len(branch)-nOpt:] {
			fmt.Fprintf(b, "OPTIONAL { %s } ", t)
		}
		b.WriteString("} ")
	} else {
		nOpt := 0
		if useOpt {
			nOpt = 1 + r.Intn(2)
			if nOpt >= len(triples) {
				nOpt = len(triples) - 1
			}
		}
		main := triples[:len(triples)-nOpt]
		opts := triples[len(triples)-nOpt:]
		if r.Float64() < feat.Graph {
			fmt.Fprintf(b, "GRAPH <http://graph.example/%d> { ", r.Intn(4))
			for _, t := range main {
				b.WriteString(t)
				b.WriteString(" . ")
			}
			b.WriteString("} ")
		} else {
			for _, t := range main {
				b.WriteString(t)
				b.WriteString(" . ")
			}
		}
		for _, t := range opts {
			fmt.Fprintf(b, "OPTIONAL { %s } ", t)
		}
	}
	if r.Float64() < feat.Filter {
		g.writeFilter(b)
	}
	if r.Float64() < feat.NotExists {
		fmt.Fprintf(b, "FILTER NOT EXISTS { ?v0 %s %s } ", g.pred(), g.constant())
	}
	if r.Float64() < feat.Exists {
		fmt.Fprintf(b, "FILTER EXISTS { ?v0 %s ?e } ", g.pred())
	}
	if r.Float64() < feat.Minus {
		fmt.Fprintf(b, "MINUS { ?v0 %s %s } ", g.pred(), g.constant())
	}
	if r.Float64() < feat.Service {
		b.WriteString(`SERVICE wikibase:label { bd:serviceParam wikibase:language "en" } `)
	}
}

func (g *Gen) writeFilter(b *strings.Builder) {
	r := g.r
	switch x := r.Float64(); {
	case x < 0.5: // unary (safe)
		fmt.Fprintf(b, "FILTER(lang(?v0) = \"en\") ")
	case x < 0.7: // unary comparison (safe)
		fmt.Fprintf(b, "FILTER(?v%d > %d) ", r.Intn(2), r.Intn(100))
	case x < 0.8: // variable equality (safe)
		b.WriteString("FILTER(?v0 = ?v1) ")
	case x < 0.93: // binary non-equality (simple, not safe)
		b.WriteString("FILTER(?v0 != ?v1) ")
	default: // ternary (not simple)
		b.WriteString("FILTER(?v0 = ?v1 && ?v1 = ?v2) ")
	}
}

// buildTriples constructs n triple-pattern strings in the drawn shape.
// Objects are constants with substantial probability — which is what makes
// the "without constants" half of Table 7 collapse to mostly edgeless
// graphs.
func (g *Gen) buildTriples(n int, usePP bool, feat FeatureRates) []string {
	r := g.r
	if n == 0 {
		return nil
	}
	ppLeft := 0
	ppType := 0
	if usePP {
		ppType = g.samplePPType()
		ppLeft = 1 + r.Intn(2)
		if ppLeft > n {
			ppLeft = n
		}
	}
	remaining := n
	predOrPath := func() string {
		defer func() { remaining-- }()
		if ppLeft > 0 && (ppLeft >= remaining || r.Float64() < 0.7) {
			ppLeft--
			return g.propertyPath(ppType)
		}
		if r.Float64() < 0.06 {
			return fmt.Sprintf("?p%d", r.Intn(3))
		}
		return g.pred()
	}
	object := func(varIdx int) string {
		if r.Float64() < 0.55 {
			if r.Float64() < 0.3 {
				return fmt.Sprintf("\"literal%d\"", r.Intn(50))
			}
			return g.constant()
		}
		return fmt.Sprintf("?v%d", varIdx)
	}
	var out []string
	switch g.sampleShape(n) {
	case shapeChain:
		for i := 0; i < n; i++ {
			o := fmt.Sprintf("?v%d", i+1)
			if i == n-1 && r.Float64() < 0.5 {
				o = object(i + 1)
			}
			out = append(out, fmt.Sprintf("?v%d %s %s", i, predOrPath(), o))
		}
	case shapeStar:
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("?v0 %s %s", predOrPath(), object(i+1)))
		}
	case shapeTree:
		for i := 0; i < n; i++ {
			parent := 0
			if i > 0 {
				parent = r.Intn(i)
			}
			out = append(out, fmt.Sprintf("?v%d %s ?v%d", parent, predOrPath(), i+1))
		}
	case shapeCycle:
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("?v%d %s ?v%d", i, predOrPath(), (i+1)%n))
		}
	case shapeClique:
		// K4 on variables v0..v3, then chain the rest
		idx := 0
		for i := 0; i < 4 && idx < n; i++ {
			for j := i + 1; j < 4 && idx < n; j++ {
				out = append(out, fmt.Sprintf("?v%d %s ?v%d", i, g.pred(), j))
				idx++
			}
		}
		for ; idx < n; idx++ {
			out = append(out, fmt.Sprintf("?v%d %s ?v%d", idx, g.pred(), idx+1))
		}
	}
	return out
}
