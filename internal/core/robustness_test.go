package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonschema"
	"repro/internal/loggen"
	"repro/internal/propertypath"
	"repro/internal/regex"
	"repro/internal/sparql"
	"repro/internal/tree"
	"repro/internal/xmllite"
	"repro/internal/xpath"
)

// TestParserRobustness is the failure-injection sweep: every parser in the
// system must return errors — never panic — on corrupted and garbage
// inputs. Real logs are dirty ("researchers with a theory background may
// need to adjust to the dirtiness of real-world data", Section 11), so the
// pipeline's first line of defense is total parsers.
func TestParserRobustness(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	seeds := []string{
		"SELECT ?s WHERE { ?s wdt:P31/wdt:P279* wd:Q839954 . FILTER(?s > 3) }",
		"PREFIX f: <http://x/> ASK { f:a f:b f:c }",
		"<persons><person pers_id=\"1\"><name>A</name></person></persons>",
		"<!ELEMENT a (b, c*)><!ELEMENT b EMPTY>",
		`{"type":"object","properties":{"a":{"type":"integer"}}}`,
		"/a/b[c and not(d)]//e",
		"wdt:P31/wdt:P279*",
		"(a + b)* a",
		"a(b(c, d), e)",
	}
	mutate := func(s string) string {
		if len(s) == 0 {
			return s
		}
		b := []byte(s)
		switch r.Intn(5) {
		case 0: // truncate
			return s[:r.Intn(len(s))]
		case 1: // flip a byte
			b[r.Intn(len(b))] = byte(r.Intn(256))
			return string(b)
		case 2: // duplicate a chunk
			i := r.Intn(len(s))
			return s[:i] + s[i:] + s[i:]
		case 3: // splice two seeds
			other := seeds[r.Intn(len(seeds))]
			return s[:r.Intn(len(s))] + other[r.Intn(len(other)):]
		default: // random garbage
			g := make([]byte, r.Intn(40))
			for i := range g {
				g[i] = byte(r.Intn(256))
			}
			return string(g)
		}
	}
	for i := 0; i < 3000; i++ {
		input := mutate(seeds[r.Intn(len(seeds))])
		// none of these calls may panic
		sparql.Parse(input)
		xmllite.Parse(input)
		xpath.Parse(input)
		propertypath.Parse(input)
		regex.Parse(input)
		tree.Parse(input)
		jsonschema.Parse(input)
	}
}

// TestAnalyzerNeverPanicsOnCorpus runs every generated query of every
// source through the full analyzer battery at small scale — including the
// deliberately corrupted queries.
func TestAnalyzerNeverPanicsOnCorpus(t *testing.T) {
	for i, s := range loggen.Sources() {
		g := loggen.NewGen(s, int64(1000+i))
		a := NewAnalyzer(s.Name)
		for j := 0; j < 400; j++ {
			a.Ingest(g.Next())
		}
		if a.Report.Valid == 0 {
			t.Errorf("%s: analyzer rejected everything", s.Name)
		}
	}
}

// wideStarredUnion returns the query
// SELECT * WHERE { ?x (<http://x/p0>|…|<http://x/p{n-1}>)* ?y }: one
// property path, a starred union of n IRIs.
func wideStarredUnion(n int) string {
	iris := make([]string, n)
	for i := range iris {
		iris[i] = fmt.Sprintf("<http://x/p%d>", i)
	}
	return "SELECT * WHERE { ?x (" + strings.Join(iris, "|") + ")* ?y }"
}

// wideStarredUnionBytesPerByte is c in the bound of
// TestAnalyzeWideStarredUnion: bytes allocated per byte of the query.
const wideStarredUnionBytesPerByte = 400

// TestAnalyzeWideStarredUnion analyzes the starred union of 250, 500
// and 1,000 IRIs (4–16 KB), one query per run, and bounds the bytes
// allocated at wideStarredUnionBytesPerByte × the query's bytes. The
// §9.6 classifiers build the path's minimal DFA; expanding the union's
// n² follow pairs into transitions first took 1.6 GB at n = 1,000.
func TestAnalyzeWideStarredUnion(t *testing.T) {
	for _, n := range []int{250, 500, 1000} {
		q := wideStarredUnion(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r := AnalyzeQueriesCtx(context.Background(), "wide", []string{q}, 1)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if r.Valid != 1 || r.PPTotal.V != 1 {
			t.Fatalf("n=%d: %d valid queries and %d property paths, want 1 and 1", n, r.Valid, r.PPTotal.V)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		ratio := float64(bytes) / float64(len(q))
		t.Logf("n=%d: %d query bytes, %v, %d bytes allocated (%.0f per query byte)", n, len(q), elapsed, bytes, ratio)
		if ratio > wideStarredUnionBytesPerByte {
			t.Errorf("n=%d: allocated %.0f bytes per query byte, want ≤ %d", n, ratio, wideStarredUnionBytesPerByte)
		}
	}
}
