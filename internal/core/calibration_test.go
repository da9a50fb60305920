package core

import (
	"context"
	"testing"

	"repro/internal/propertypath"
	"repro/internal/sparql"
)

// TestPaperShapeInvariants runs the pipeline at moderate scale and checks
// the qualitative findings of Sections 9.3–9.6 — the "who wins, by what
// factor" shape of Tables 3–8 — on the synthetic corpus. EXPERIMENTS.md
// records the full quantitative comparison.
func TestPaperShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is moderately expensive")
	}
	// The Valid-vs-Unique skew emerges from the replay bag, which needs a
	// few thousand queries per source to converge — run at 1:20000
	// (≈ 28k queries total).
	reports := RunLogStudy(context.Background(), Config{Seed: 3, ScaleDiv: 20000})
	dbp, wiki := GroupReports(reports)

	rate := func(c *Counter2, total int) float64 {
		if c == nil || total == 0 {
			return 0
		}
		return float64(c.V) / float64(total)
	}

	// Figure 3: queries with ≤ 1 triple are ~51%, ≤ 2 are ~66% overall.
	all := Merge("all", reports)
	le1 := float64(all.TripleBuckets[0].V+all.TripleBuckets[1].V) / float64(all.CountedV)
	if le1 < 0.35 || le1 > 0.65 {
		t.Errorf("≤1 triple rate = %.2f, paper ≈ 0.51", le1)
	}

	// Table 3: property paths are rare in DBpedia–BritM (0.44%) and
	// prominent in Wikidata (24.03%).
	dbpPP := rate(dbp.Features[sparql.FPropertyPath], dbp.Valid)
	wikiPP := rate(wiki.Features[sparql.FPropertyPath], wiki.Valid)
	if dbpPP > 0.03 {
		t.Errorf("DBpedia PP rate = %.4f, paper ≈ 0.0044", dbpPP)
	}
	if wikiPP < 0.15 || wikiPP > 0.35 {
		t.Errorf("Wikidata PP rate = %.3f, paper ≈ 0.24", wikiPP)
	}
	// ... and Service is negligible in DBpedia–BritM but not in Wikidata.
	if s := rate(dbp.Features[sparql.FService], dbp.Valid); s > 0.01 {
		t.Errorf("DBpedia Service rate = %.4f, paper ≈ 0", s)
	}
	if s := rate(wiki.Features[sparql.FService], wiki.Valid); s < 0.03 {
		t.Errorf("Wikidata Service rate = %.4f, paper ≈ 0.084", s)
	}

	// Table 4: the CQ+F subtotal is roughly half of DBpedia–BritM.
	sub := 0
	for _, name := range Table4Rows {
		if c := dbp.OperatorSets[name]; c != nil {
			sub += c.V
		}
	}
	if f := float64(sub) / float64(dbp.Valid); f < 0.30 || f > 0.70 {
		t.Errorf("CQ+F subtotal = %.2f, paper ≈ 0.505", f)
	}

	// Table 6: nearly all conjunctive queries are acyclic and ALL have
	// htw ≤ 3; most are free-connex.
	if dbp.CQF.Total.V > 0 {
		if f := float64(dbp.CQF.Htw3.V) / float64(dbp.CQF.Total.V); f < 0.9999 {
			t.Errorf("htw≤3 rate = %.4f, paper = 1.0000", f)
		}
		if f := float64(dbp.CQF.FCA.V) / float64(dbp.CQF.Total.V); f < 0.80 {
			t.Errorf("FCA rate = %.3f, paper ≈ 0.94", f)
		}
	}

	// Table 7: cumulative star coverage ≈ 99%; everything within tw ≤ 3.
	if dbp.GraphCQF.V > 0 {
		cumStar, cumAll := 0, 0
		for lvl := ShapeNoEdge; lvl <= ShapeStar; lvl++ {
			cumStar += dbp.ShapeWith[lvl].V
		}
		for lvl := ShapeNoEdge; lvl <= ShapeTW3; lvl++ {
			cumAll += dbp.ShapeWith[lvl].V
		}
		if f := float64(cumStar) / float64(dbp.GraphCQF.V); f < 0.93 {
			t.Errorf("≤star coverage = %.3f, paper ≈ 0.988", f)
		}
		if cumAll != dbp.GraphCQF.V {
			t.Errorf("tw≤3 must cover all graph-CQ+F queries: %d vs %d", cumAll, dbp.GraphCQF.V)
		}
		// "without constants" pushes the mass into no-edge (86.75% in the
		// paper): it must exceed the with-constants no-edge share
		if wo, wi := dbp.ShapeWithout[ShapeNoEdge].V, dbp.ShapeWith[ShapeNoEdge].V; wo <= wi {
			t.Errorf("no-edge without constants (%d) should exceed with constants (%d)", wo, wi)
		}
	}

	// Table 8: a* dominates the Valid column, sequences dominate Unique.
	if wiki.PPTotal.V > 100 {
		aStar := wiki.PPRows[propertypath.RowAStar]
		seq := wiki.PPRows[propertypath.RowSeq]
		if aStar == nil || seq == nil {
			t.Fatal("missing Table 8 rows")
		}
		if float64(aStar.V)/float64(wiki.PPTotal.V) < 0.35 {
			t.Errorf("a* Valid share = %.3f, paper ≈ 0.50", float64(aStar.V)/float64(wiki.PPTotal.V))
		}
		if float64(seq.U)/float64(wiki.PPTotal.U) < 0.45 {
			t.Errorf("sequence Unique share = %.3f, paper ≈ 0.66", float64(seq.U)/float64(wiki.PPTotal.U))
		}
		// the skew direction must match: a* is replayed, sequences are not
		if aStar.V*seq.U <= aStar.U*seq.V {
			t.Error("Valid/Unique skew between a* and sequences is missing")
		}
		// STE coverage > 99% (Section 9.6)
		if f := float64(wiki.NonSTE.V) / float64(wiki.PPTotal.V); f > 0.05 {
			t.Errorf("non-STE rate = %.4f, paper < 0.02", f)
		}
	}

	// Section 9.4: nearly all And/Filter/Optional queries are well-designed.
	if dbp.AFO.V > 0 {
		if f := float64(dbp.WellDesigned.V) / float64(dbp.AFO.V); f < 0.90 {
			t.Errorf("well-designed rate = %.3f, paper ≈ 0.987", f)
		}
	}
}
