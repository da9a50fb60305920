package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sparql"
)

// invariantPool mixes valid queries (with duplicates and analysis-relevant
// variety), unparseable garbage, and trigger queries for the two panic
// hooks.
var invariantPool = []string{
	"SELECT * WHERE { ?s ?p ?o . }",
	"SELECT * WHERE { ?s ?p ?o . }", // duplicate in the pool itself
	"SELECT DISTINCT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q5 . }",
	"SELECT ?s WHERE { { ?s ex:p ?o } UNION { ?s ex:q ?o } }",
	"ASK { ?x ex:p ?y . ?y ex:q ?z . FILTER(?x != ?z) }",
	"SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?y } GROUP BY ?p",
	"SELECT ?s WHERE { ?s ex:p ?o OPTIONAL { ?o ex:q ?x } }",
	"not a sparql query at all",
	"SELECT * WHERE { unterminated",
	"",
	"SELECT * WHERE { ?s <http://panic/analyze> ?o . }",
	"PANICPARSE SELECT * WHERE { ?s ?p ?o . }",
}

func installPanicHooks(t *testing.T) {
	t.Helper()
	parseHook = func(raw string) {
		if strings.Contains(raw, "PANICPARSE") {
			panic("injected parser panic")
		}
	}
	analyzeHook = func(q *sparql.Query) {
		if strings.Contains(q.Canonical(), "http://panic/analyze") {
			panic("injected battery panic")
		}
	}
	t.Cleanup(func() { parseHook, analyzeHook = nil, nil })
}

// TestCounterInvariants ingests random sequences from the pool — panics
// included — and checks the structural report invariants: Total >= Valid
// >= Unique >= 0 at the top level, and V >= U >= 0 with V <= Valid,
// U <= Unique for every Counter2 the report contains.
func TestCounterInvariants(t *testing.T) {
	installPanicHooks(t)
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := NewAnalyzer("invariants")
		n := 30 + r.Intn(120)
		for i := 0; i < n; i++ {
			a.Ingest(invariantPool[r.Intn(len(invariantPool))])
		}
		rep := a.Report
		if rep.Total != n {
			t.Fatalf("seed %d: Total=%d after %d ingests", seed, rep.Total, n)
		}
		if rep.Valid < rep.Unique || rep.Unique < 0 || rep.Total < rep.Valid {
			t.Fatalf("seed %d: Total=%d Valid=%d Unique=%d violates Total >= Valid >= Unique >= 0",
				seed, rep.Total, rep.Valid, rep.Unique)
		}
		forEachCounter(rep, rep, func(_, c *Counter2) {
			if c.U < 0 || c.V < c.U {
				t.Fatalf("seed %d: counter V=%d U=%d violates V >= U >= 0", seed, c.V, c.U)
			}
			if c.V > rep.Valid || c.U > rep.Unique {
				t.Fatalf("seed %d: counter V=%d U=%d exceeds report Valid=%d Unique=%d",
					seed, c.V, c.U, rep.Valid, rep.Unique)
			}
		})
	}
}

// TestParseSafeRecovery asserts directly that a panicking parser is
// absorbed by parseSafe and surfaces as a plain parse failure.
func TestParseSafeRecovery(t *testing.T) {
	installPanicHooks(t)
	if _, _, ok := parseSafe("PANICPARSE SELECT * WHERE { ?s ?p ?o . }"); ok {
		t.Fatal("parseSafe did not absorb the injected parser panic")
	}
	if _, canon, ok := parseSafe("SELECT * WHERE { ?s ?p ?o . }"); !ok || canon == "" {
		t.Fatal("parseSafe rejected a valid query with hooks installed")
	}
	a := NewAnalyzer("recovery")
	a.Ingest("PANICPARSE SELECT * WHERE { ?s ?p ?o . }")
	if a.Report.Total != 1 || a.Report.Valid != 0 {
		t.Fatalf("panicking parse counted as valid: %+v", a.Report)
	}
}

// TestAnalyzePanicRollback pins the dedup rollback: a query whose battery
// panics must leave no trace in the dedup state, so re-ingesting it
// behaves identically, and a shard merge sees the same counts as a
// sequential run.
func TestAnalyzePanicRollback(t *testing.T) {
	installPanicHooks(t)
	a := NewAnalyzer("rollback")
	bad := "SELECT * WHERE { ?s <http://panic/analyze> ?o . }"
	a.Ingest(bad)
	a.Ingest(bad)
	a.Ingest("SELECT * WHERE { ?s ?p ?o . }")
	if a.Report.Total != 3 || a.Report.Valid != 1 || a.Report.Unique != 1 {
		t.Fatalf("rollback broken: %+v", a.Report)
	}
}
