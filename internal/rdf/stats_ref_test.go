package rdf

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refComputeStats is the map-based statistics computation ComputeStats
// replaced, kept as the reference it is checked against: seven
// string-keyed maps built from one pass over Triples. Its predicate-list
// key quotes each predicate (%q) so that lists of terms containing NUL
// stay distinct.
func refComputeStats(g GraphReader) *Stats {
	triples := g.Triples()
	bySubject := map[string]int{}
	byObject := map[string]int{}
	predicates := map[string]bool{}
	subjectPreds := map[string]map[string]bool{}
	objectPreds := map[string]map[string]bool{}
	bySP := map[[2]string]int{}
	byPO := map[[2]string]int{}
	for _, t := range triples {
		bySubject[t.S]++
		byObject[t.O]++
		predicates[t.P] = true
		if subjectPreds[t.S] == nil {
			subjectPreds[t.S] = map[string]bool{}
		}
		subjectPreds[t.S][t.P] = true
		if objectPreds[t.O] == nil {
			objectPreds[t.O] = map[string]bool{}
		}
		objectPreds[t.O][t.P] = true
		bySP[[2]string{t.S, t.P}]++
		byPO[[2]string{t.P, t.O}]++
	}

	st := &Stats{
		Triples:    len(triples),
		Subjects:   len(bySubject),
		Predicates: len(predicates),
		Objects:    len(byObject),
	}
	var outs, ins []int
	for _, n := range bySubject {
		outs = append(outs, n)
	}
	for _, n := range byObject {
		ins = append(ins, n)
	}
	st.OutDegree = newDistribution(outs)
	st.InDegree = newDistribution(ins)

	listCount := map[string]int{}
	for _, set := range subjectPreds {
		ps := make([]string, 0, len(set))
		for p := range set {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		listCount[fmt.Sprintf("%q", ps)]++
	}
	st.PredicateLists = len(listCount)
	if st.PredicateLists > 0 {
		st.RatioSubjectsPerList = float64(st.Subjects) / float64(st.PredicateLists)
	}
	threshold := st.Subjects / 100
	if threshold < 2 {
		threshold = 2
	}
	shared := 0
	for _, n := range listCount {
		if n >= threshold {
			shared += n
		}
	}
	if st.Subjects > 0 {
		st.SharedListSubjectRate = float64(shared) / float64(st.Subjects)
	}

	st.MeanObjectsPerSP = refMeanCount(bySP)
	st.MeanSubjectsPerPO, st.StdDevSubjectsPerPO = refMeanStdCount(byPO)

	perObject := 0
	for _, set := range objectPreds {
		perObject += len(set)
	}
	if st.Objects > 0 {
		st.MeanPredicatesPerObject = float64(perObject) / float64(st.Objects)
	}

	st.PSOverlap = refOverlap(predicates, refKeys(bySubject))
	st.POOverlap = refOverlap(predicates, refKeys(byObject))
	return st
}

func refKeys(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func refOverlap(a, b map[string]bool) float64 {
	inter, union := 0, len(b)
	for k := range a {
		if b[k] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func refMeanCount(m map[[2]string]int) float64 {
	if len(m) == 0 {
		return 0
	}
	sum := 0
	for _, n := range m {
		sum += n
	}
	return float64(sum) / float64(len(m))
}

func refMeanStdCount(m map[[2]string]int) (mean, std float64) {
	if len(m) == 0 {
		return 0, 0
	}
	counts := make([]int, 0, len(m))
	sum := 0
	for _, n := range m {
		counts = append(counts, n)
		sum += n
	}
	sort.Ints(counts)
	mean = float64(sum) / float64(len(m))
	varSum := 0.0
	for _, n := range counts {
		d := float64(n) - mean
		varSum += d * d
	}
	std = math.Sqrt(varSum / float64(len(m)))
	return mean, std
}

// assertStatsMatchReference checks ComputeStats against the reference
// as values and as JSON bytes, and against a copy of g with its triples
// in reverse order, which changes every term id.
func assertStatsMatchReference(t *testing.T, name string, g *Graph) {
	t.Helper()
	want := refComputeStats(g)
	triples := g.Triples()
	reversed := NewGraph()
	for i := len(triples) - 1; i >= 0; i-- {
		reversed.Add(triples[i].S, triples[i].P, triples[i].O)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Graph{g, reversed} {
		got := ComputeStats(h)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ComputeStats diverges from the reference:\ngot:  %+v\nwant: %+v", name, got, want)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: JSON diverges from the reference:\ngot:  %s\nwant: %s", name, gotJSON, wantJSON)
		}
	}
}

// TestComputeStatsMatchesReference runs ComputeStats and the map-based
// reference over 240 generated graphs of 0 to ~1000 triples; odd seeds
// use predicates as subjects at 100× the default rate, so the P∩S
// overlap is often nonzero.
func TestComputeStatsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		gen := DefaultGen()
		if seed%2 == 1 {
			gen.PredicateAsSubjectRate = 0.05
		}
		g := gen.Graph(rand.New(rand.NewSource(seed)), int(seed*seed%350))
		assertStatsMatchReference(t, fmt.Sprintf("seed %d", seed), g)
	}
}

func TestComputeStatsEdgeCases(t *testing.T) {
	long := "http://example.org/a-term-longer-than-eight-bytes"
	cases := map[string][]Triple{
		"empty":  nil,
		"single": {{"s", "p", "o"}},
		"predicate as subject and object": {
			{"a", "p", "b"}, {"p", "q", "c"}, {"d", "q", "p"}, {"p", "p", "p"},
		},
		"multi-valued (s,p)": {
			{"s", "p", "o1"}, {"s", "p", "o2"}, {"s", "p", "o3"}, {"s", "q", "o1"}, {"t", "p", "o1"},
		},
		"long terms": {
			{long + "/s", long + "/p", long + "/o"}, {long + "/s", long + "/p", "short"},
			{"short", long + "/p", long + "/s"}, {long + "/p", "p", long + "/o"},
		},
		"terms containing NUL": {
			{"a\x00", "p", "\x00"}, {"a", "p", "\x00\x00"}, {"\x00", "p\x00", "a"}, {"a\x00", "p\x00", "a\x00"},
		},
		// Joined with NUL, {"a", "b"} and {"a\x00b"} are the same string;
		// they are two different predicate lists.
		"NUL-joined lists collide": {
			{"s1", "a", "o"}, {"s1", "b", "o"}, {"s2", "a\x00b", "o"},
		},
	}
	for name, triples := range cases {
		g := NewGraph()
		for _, tr := range triples {
			g.Add(tr.S, tr.P, tr.O)
		}
		assertStatsMatchReference(t, name, g)
		if name == "NUL-joined lists collide" && ComputeStats(g).PredicateLists != 2 {
			t.Fatalf("%s: counted %d predicate lists, want 2", name, ComputeStats(g).PredicateLists)
		}
	}
}

var benchStats *Stats

// BenchmarkComputeStats is the in-memory stats layer on 20,000
// generated triples: interning the strings plus the dense-id core.
func BenchmarkComputeStats(b *testing.B) {
	gen := DefaultGen().Graph(rand.New(rand.NewSource(1)), 9000)
	g := NewGraph()
	for _, t := range gen.Triples()[:20000] {
		g.Add(t.S, t.P, t.O)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = ComputeStats(g)
	}
}
