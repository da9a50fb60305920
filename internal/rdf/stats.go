package rdf

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// Stats aggregates the dataset characteristics studied in Section 7.1.
type Stats struct {
	Triples    int
	Subjects   int
	Predicates int
	Objects    int

	// OutDegree and InDegree are per-node degree distributions (number of
	// triples per subject resp. object). Bachlechner & Strang observed a
	// maximum degree of 7739 against an average of 9.56 on FOAF data.
	OutDegree, InDegree Distribution

	// PredicateLists is the number of distinct predicate lists L_s
	// (Fernandez et al., Section 7.1.2); RatioSubjectsPerList is
	// |S_G| / |L_G| — "subjects almost always have the same set of labels
	// in outgoing edges, i.e., in around 99% of the cases" corresponds to
	// few lists shared by many subjects.
	PredicateLists        int
	RatioSubjectsPerList  float64
	SharedListSubjectRate float64 // fraction of subjects whose list is shared by ≥ 1% of subjects

	// MeanObjectsPerSP is the mean multiplicity of (s,p) pairs — close to
	// 1 in the study ("each pair (s, p) ... mostly related to a unique
	// object").
	MeanObjectsPerSP float64
	// MeanSubjectsPerPO and StdDevSubjectsPerPO: mean close to 1 but with
	// high standard deviation (skewed distribution).
	MeanSubjectsPerPO   float64
	StdDevSubjectsPerPO float64
	// MeanPredicatesPerObject ≈ 1: objects very often have one incoming
	// edge label.
	MeanPredicatesPerObject float64

	// PSOverlap = |P∩S| / |P∪S| and POOverlap = |P∩O| / |P∪O|
	// (Fernandez et al., Table 3: often zero, otherwise 10⁻⁷–10⁻³),
	// justifying the edge-labeled-graph abstraction.
	PSOverlap, POOverlap float64
}

// Distribution summarizes a multiset of integers.
type Distribution struct {
	Count  int
	Max    int
	Mean   float64
	Alpha  float64 // discrete power-law MLE exponent (xmin = 1)
	Values []int   // sorted ascending
}

func newDistribution(values []int) Distribution {
	d := Distribution{Count: len(values)}
	if len(values) == 0 {
		return d
	}
	sort.Ints(values)
	d.Values = values
	d.Max = values[len(values)-1]
	sum := 0
	logSum := 0.0
	for _, v := range values {
		sum += v
		if v >= 1 {
			logSum += math.Log(float64(v) / 0.5)
		}
	}
	d.Mean = float64(sum) / float64(len(values))
	if logSum > 0 {
		d.Alpha = 1 + float64(len(values))/logSum
	}
	return d
}

// WriteSummary writes the five-line Section 7.1 summary of s, each
// statistic beside the figure the paper reports for it.
func (s *Stats) WriteSummary(w io.Writer) error {
	_, err := fmt.Fprintf(w, "triples: %d, subjects: %d, predicates: %d, objects: %d\n"+
		"in-degree: max %d, mean %.2f, alpha %.2f (power law; Bachlechner/Strang: max 7739 vs mean 9.56)\n"+
		"predicate lists: %d distinct; %.1f%% of subjects share a common list (Fernandez: ≈99%%)\n"+
		"objects per (s,p): %.3f (≈1); subjects per (p,o): %.2f ± %.2f (skewed)\n"+
		"|P∩S|/|P∪S| = %.2g, |P∩O|/|P∪O| = %.2g (paper: 0 or 10⁻⁷..10⁻³)\n",
		s.Triples, s.Subjects, s.Predicates, s.Objects,
		s.InDegree.Max, s.InDegree.Mean, s.InDegree.Alpha,
		s.PredicateLists, 100*s.SharedListSubjectRate,
		s.MeanObjectsPerSP, s.MeanSubjectsPerPO, s.StdDevSubjectsPerPO,
		s.PSOverlap, s.POOverlap)
	return err
}

// ComputeStats runs the Section 7.1 analyses over any GraphReader.
//
// Every statistic depends only on which terms are equal, never on term
// text or order, so there is one algorithm, statsOfIDs, over dense term
// ids. A reader that implements TermIDSource supplies the ids itself
// (store.StoredGraph numbers the encoded terms of its keys); any other
// reader's triples are interned into ids in one pass. Every aggregate
// is independent of triple order and id assignment (distributions sort,
// counts are integers, the one non-exact floating-point fold runs over
// sorted values) — the store-analysis differential oracle depends on
// that for byte-identical reports across backends.
func ComputeStats(g GraphReader) *Stats {
	if src, ok := g.(TermIDSource); ok {
		return statsOfIDs(src.TermIDs())
	}
	return statsOfIDs(internTerms(g.Triples()))
}

// internTerms numbers the distinct terms of triples 0, 1, ... in order
// of first occurrence.
func internTerms(triples []Triple) ([][3]uint32, int) {
	ids := make(map[string]uint32, len(triples))
	id := func(term string) uint32 {
		v, ok := ids[term]
		if !ok {
			v = uint32(len(ids))
			ids[term] = v
		}
		return v
	}
	out := make([][3]uint32, len(triples))
	for i, t := range triples {
		out[i] = [3]uint32{id(t.S), id(t.P), id(t.O)}
	}
	return out, len(ids)
}

// statsOfIDs computes the statistics of triples over term ids in
// [0, terms). Per-term counts are slices indexed by id; the (s,p) and
// (p,o) groups are runs of equal packed pairs after a sort.
func statsOfIDs(triples [][3]uint32, terms int) *Stats {
	outDeg := make([]int, terms)
	inDeg := make([]int, terms)
	isPred := make([]bool, terms)
	sp := make([]uint64, len(triples))
	po := make([]uint64, len(triples))
	for i, t := range triples {
		outDeg[t[0]]++
		inDeg[t[2]]++
		isPred[t[1]] = true
		sp[i] = uint64(t[0])<<32 | uint64(t[1])
		po[i] = uint64(t[1])<<32 | uint64(t[2])
	}

	st := &Stats{Triples: len(triples)}
	var outs, ins []int
	predSubjects, predObjects := 0, 0 // |P∩S|, |P∩O|
	for id := range terms {
		if outDeg[id] > 0 {
			outs = append(outs, outDeg[id])
		}
		if inDeg[id] > 0 {
			ins = append(ins, inDeg[id])
		}
		if isPred[id] {
			st.Predicates++
			if outDeg[id] > 0 {
				predSubjects++
			}
			if inDeg[id] > 0 {
				predObjects++
			}
		}
	}
	st.Subjects, st.Objects = len(outs), len(ins)
	st.OutDegree = newDistribution(outs)
	st.InDegree = newDistribution(ins)

	// (s,p) groups: after the sort and dedup, each subject's distinct
	// predicates are one run of ascending ids — its predicate list.
	slices.Sort(sp)
	sp = slices.Compact(sp)
	if len(sp) > 0 {
		st.MeanObjectsPerSP = float64(len(triples)) / float64(len(sp))
	}
	predicateLists(st, sp)

	// (p,o) groups: the run lengths are the subjects per (p,o) pair, and
	// the number of runs is the sum over objects of their distinct
	// incoming predicates.
	slices.Sort(po)
	var perPO []int
	for lo := 0; lo < len(po); {
		hi := lo + 1
		for hi < len(po) && po[hi] == po[lo] {
			hi++
		}
		perPO = append(perPO, hi-lo)
		lo = hi
	}
	st.MeanSubjectsPerPO, st.StdDevSubjectsPerPO = meanStd(perPO)
	if st.Objects > 0 {
		st.MeanPredicatesPerObject = float64(len(perPO)) / float64(st.Objects)
	}

	st.PSOverlap = overlap(predSubjects, st.Predicates, st.Subjects)
	st.POOverlap = overlap(predObjects, st.Predicates, st.Objects)
	return st
}

// predicateLists fills the predicate-list statistics from the distinct
// (s,p) pairs, sorted. Two subjects share a list exactly when their
// runs hold the same id sequence, so sorting the runs by that sequence
// makes each shared list one group of adjacent runs.
func predicateLists(st *Stats, sp []uint64) {
	var runs [][]uint64
	for lo := 0; lo < len(sp); {
		hi := lo + 1
		for hi < len(sp) && sp[hi]>>32 == sp[lo]>>32 {
			hi++
		}
		runs = append(runs, sp[lo:hi])
		lo = hi
	}
	// Compare the predicate ids, the low halves; the subject halves
	// differ between runs by construction.
	byPredicates := func(a, b []uint64) int {
		return slices.CompareFunc(a, b, func(x, y uint64) int { return cmp.Compare(uint32(x), uint32(y)) })
	}
	slices.SortFunc(runs, byPredicates)

	threshold := max(st.Subjects/100, 2)
	shared := 0
	for lo := 0; lo < len(runs); {
		hi := lo + 1
		for hi < len(runs) && byPredicates(runs[hi], runs[lo]) == 0 {
			hi++
		}
		st.PredicateLists++
		if n := hi - lo; n >= threshold {
			shared += n
		}
		lo = hi
	}
	if st.PredicateLists > 0 {
		st.RatioSubjectsPerList = float64(st.Subjects) / float64(st.PredicateLists)
	}
	if st.Subjects > 0 {
		st.SharedListSubjectRate = float64(shared) / float64(st.Subjects)
	}
}

// overlap returns |P∩X| / |P∪X| from the sizes of P, X and P∩X, or 0
// when both sets are empty.
func overlap(inter, p, x int) float64 {
	union := p + x - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// meanStd returns the mean and population standard deviation of counts,
// sorting counts in place.
func meanStd(counts []int) (mean, std float64) {
	if len(counts) == 0 {
		return 0, 0
	}
	// Accumulate in sorted order: the squared deviations are not exactly
	// representable, so the last bits of the sum depend on the order,
	// and sorting makes it independent of triple order and id assignment
	// — the byte-identity the store-analysis oracle pins.
	sort.Ints(counts)
	sum := 0
	for _, n := range counts {
		sum += n
	}
	mean = float64(sum) / float64(len(counts))
	varSum := 0.0
	for _, n := range counts {
		d := float64(n) - mean
		varSum += d * d
	}
	return mean, math.Sqrt(varSum / float64(len(counts)))
}
