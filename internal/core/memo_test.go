package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sparql"
)

// perQueryMerge builds a report with no replay at all: every query goes
// to an analyzer of its own, and MergeShards combines them. It is the
// unmemoized side of the shard-merge oracle.
func perQueryMerge(name string, qs []string) *SourceReport {
	shards := make([]*Analyzer, len(qs))
	for i, q := range qs {
		shards[i] = NewAnalyzer(name)
		shards[i].Ingest(q)
	}
	return MergeShards(name, shards)
}

// TestMemoRepeatAfterPanicRunsBattery: a first occurrence whose battery
// panicked is not memoized, so the next copy of the same string runs the
// battery again, and only the copy after that is replayed.
func TestMemoRepeatAfterPanicRunsBattery(t *testing.T) {
	defer func() { analyzeHook = nil }()
	const q = "SELECT ?s WHERE { ?s ?p ?o }"
	runs := 0
	analyzeHook = func(*sparql.Query) {
		runs++
		if runs == 1 {
			panic("injected battery failure")
		}
	}
	a := NewAnalyzer("panicky")
	for i := 0; i < 3; i++ {
		a.Ingest(q)
	}
	if runs != 2 || a.memoHits != 1 {
		t.Fatalf("battery ran %d times with %d memo hits, want 2 and 1", runs, a.memoHits)
	}
	r := a.Report
	if r.Total != 3 || r.Valid != 2 || r.Unique != 1 {
		t.Fatalf("T=%d V=%d U=%d, want 3/2/1", r.Total, r.Valid, r.Unique)
	}
}

// TestMemoRepeatedInvalidAddsOnlyTotal: a memoized parse failure replays
// as one more Total and nothing else.
func TestMemoRepeatedInvalidAddsOnlyTotal(t *testing.T) {
	a := NewAnalyzer("invalid")
	for i := 0; i < 3; i++ {
		a.Ingest("not a query")
	}
	want := NewSourceReport("invalid")
	want.Total = 3
	if !reflect.DeepEqual(a.Report, want) {
		t.Fatalf("report %+v, want only Total=3", a.Report)
	}
	if a.memoHits != 2 {
		t.Fatalf("memo hits = %d, want 2", a.memoHits)
	}
}

// TestMemoBounded floods an analyzer with more distinct invalid strings
// than the memo holds, by entries and by bytes, then repeats them and a
// valid query: the memo stays within its bounds, and the report is the
// one the same stream gives with no replay.
func TestMemoBounded(t *testing.T) {
	const valid = "SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z }"
	for _, tc := range []struct {
		name string
		n    int
		pad  string
	}{
		{"entries", memoMaxEntries + 100, ""},
		{"bytes", memoMaxBytes/1024 + 100, strings.Repeat("x", 1024)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flood []string
			for i := 0; i < tc.n; i++ {
				flood = append(flood, fmt.Sprintf("bad %d %s", i, tc.pad))
			}
			a := NewAnalyzer("flood")
			for _, q := range flood {
				a.Ingest(q)
			}
			full := len(a.memo)
			if full >= tc.n {
				t.Fatalf("memo holds all %d flood strings", tc.n)
			}
			for _, q := range flood {
				a.Ingest(q)
			}
			if a.memoHits != full {
				t.Fatalf("memo hits = %d, want %d (one per remembered string)", a.memoHits, full)
			}
			a.Ingest(valid)
			a.Ingest(valid)
			if len(a.memo) > memoMaxEntries || a.memoBytes > memoMaxBytes {
				t.Fatalf("memo grew to %d entries and %d bytes, past its bounds %d and %d",
					len(a.memo), a.memoBytes, memoMaxEntries, memoMaxBytes)
			}
			want := NewAnalyzer("flood")
			want.Ingest(valid)
			want.Ingest(valid)
			want.Report.Total += 2 * tc.n
			if !reflect.DeepEqual(a.Report, want.Report) {
				t.Fatalf("report after the flood differs:\ngot  %+v\nwant %+v", a.Report, want.Report)
			}
		})
	}
}

// TestMutatedOutcomeCaught is the mutation check behind the shard-merge
// oracle's unmemoized side: a stored outcome missing one touched
// counter, whether in the memo that replays raw repeats or in the first
// occurrence MergeShards corrects the U side with, must make the report
// differ from the one built with no replay.
func TestMutatedOutcomeCaught(t *testing.T) {
	const (
		q       = "SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z FILTER(?x != ?z) }"
		variant = "SELECT  ?x  WHERE { ?x <p> ?y . ?y <q> ?z FILTER(?x != ?z) }"
		other   = "ASK { ?a <p> ?b }"
	)
	qs := []string{q, other, q, variant, q}
	want := perQueryMerge("m", qs)
	if got := AnalyzeQueries("m", qs, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("unmutated reports differ:\nmemoized %+v\nno replay %+v", got, want)
	}
	drop := func(o *outcome) *outcome {
		if len(o.touched) == 0 {
			t.Fatal("outcome touches no counter")
		}
		return &outcome{counted: o.counted, touched: o.touched[1:]}
	}

	// memo: the repeats of q replay an outcome with one counter missing
	a := NewAnalyzer("m")
	a.Ingest(qs[0])
	a.memo[q] = drop(a.memo[q])
	for _, s := range qs[1:] {
		a.Ingest(s)
	}
	if reflect.DeepEqual(a.Report, want) {
		t.Error("a replayed outcome missing a counter went unnoticed")
	}

	// merge: one shard's first occurrence of q's canonical form
	shards := make([]*Analyzer, len(qs))
	for i, s := range qs {
		shards[i] = NewAnalyzer("m")
		shards[i].Ingest(s)
	}
	canon := ""
	for c := range shards[0].seen {
		canon = c
	}
	shards[0].seen[canon] = drop(shards[0].seen[canon])
	if reflect.DeepEqual(MergeShards("m", shards), want) {
		t.Error("a first-occurrence outcome missing a counter went unnoticed by the merge")
	}
}
