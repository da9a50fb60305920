package rdf

import (
	"math/rand"
	"testing"
)

func smallGraph() *Graph {
	g := NewGraph()
	g.Add("s1", "wdt:P31", "Q5")
	g.Add("s1", "wdt:P625", "coord1")
	g.Add("s2", "wdt:P31", "Q5")
	g.Add("s2", "wdt:P625", "coord2")
	g.Add("s3", "wdt:P279", "Q5")
	return g
}

func TestGraphBasics(t *testing.T) {
	g := smallGraph()
	if g.Len() != 5 {
		t.Errorf("Len = %d", g.Len())
	}
	if g.Add("s1", "wdt:P31", "Q5") {
		t.Error("duplicate triple added")
	}
	if !g.Has("s1", "wdt:P31", "Q5") || g.Has("s1", "wdt:P31", "Q6") {
		t.Error("Has broken")
	}
	if got := g.Match("s1", "wdt:P31", ""); len(got) != 1 || got[0].O != "Q5" {
		t.Errorf("Match(s1,P31,*) = %v", got)
	}
	if got := g.Match("", "wdt:P31", "Q5"); len(got) != 2 {
		t.Errorf("Match(*,P31,Q5) = %v", got)
	}
	if got := g.Match("", "wdt:P31", ""); len(got) != 2 {
		t.Errorf("Match(*,P31,*) = %v", got)
	}
	if got := g.Match("", "", ""); len(got) != 5 {
		t.Errorf("Match all = %d", len(got))
	}
	if got := g.Match("s1", "", ""); len(got) != 2 {
		t.Errorf("Match(s1,*,*) = %d", len(got))
	}
	if got := g.Match("", "", "Q5"); len(got) != 3 {
		t.Errorf("Match(*,*,Q5) = %d", len(got))
	}
}

func TestComputeStatsSmall(t *testing.T) {
	st := ComputeStats(smallGraph())
	if st.Triples != 5 || st.Subjects != 3 || st.Predicates != 3 || st.Objects != 3 {
		t.Errorf("counts: %+v", st)
	}
	// s1, s2 share the list {P31, P625}; s3 has {P279}.
	if st.PredicateLists != 2 {
		t.Errorf("PredicateLists = %d, want 2", st.PredicateLists)
	}
	if st.PSOverlap != 0 || st.POOverlap != 0 {
		t.Errorf("overlaps should be zero: %v %v", st.PSOverlap, st.POOverlap)
	}
	if st.MeanObjectsPerSP != 1 {
		t.Errorf("MeanObjectsPerSP = %f", st.MeanObjectsPerSP)
	}
}

func TestGeneratedDatasetMatchesStudyRegime(t *testing.T) {
	// Section 7.1: power-law degrees, shared predicate lists (~99%), tiny
	// P/S overlap, (s,p) multiplicity ≈ 1.
	g := DefaultGen().Graph(rand.New(rand.NewSource(7)), 5000)
	st := ComputeStats(g)
	if st.Subjects < 4000 {
		t.Fatalf("subjects = %d", st.Subjects)
	}
	// skewed in-degrees: max far above mean
	if float64(st.InDegree.Max) < 10*st.InDegree.Mean {
		t.Errorf("in-degree not skewed: max %d mean %.2f", st.InDegree.Max, st.InDegree.Mean)
	}
	// shared predicate lists: few lists, many subjects
	if st.RatioSubjectsPerList < 100 {
		t.Errorf("subjects per list = %.1f, want ≫ 1", st.RatioSubjectsPerList)
	}
	if st.SharedListSubjectRate < 0.95 {
		t.Errorf("shared list rate = %.3f, want ≈ 0.99", st.SharedListSubjectRate)
	}
	// (s,p) mostly unique object
	if st.MeanObjectsPerSP > 1.2 {
		t.Errorf("MeanObjectsPerSP = %.3f, want ≈ 1", st.MeanObjectsPerSP)
	}
	// skew in (p,o)→s: high standard deviation relative to the mean
	if st.StdDevSubjectsPerPO < 0.7*st.MeanSubjectsPerPO {
		t.Errorf("subjects-per-(p,o) not skewed: mean %.2f std %.2f",
			st.MeanSubjectsPerPO, st.StdDevSubjectsPerPO)
	}
	// overlap tiny but (by construction) possibly non-zero
	if st.PSOverlap > 0.001 {
		t.Errorf("PSOverlap = %g, want ≤ 10⁻³", st.PSOverlap)
	}
	// power-law exponent in a plausible range
	if a := st.InDegree.Alpha; a < 1.2 || a > 4.5 {
		t.Errorf("in-degree alpha = %.2f", a)
	}
}
