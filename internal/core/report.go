package core

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/propertypath"
	"repro/internal/sparql"
)

func pct(n, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(total))
}

// RenderTable2 prints Total/Valid/Unique per source (Table 2). It
// returns the first write error.
func RenderTable2(w io.Writer, reports []*SourceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Source\tTotal #Q\tValid #Q\tUnique #Q")
	var t, v, u int
	for _, r := range reports {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Name, r.Total, r.Valid, r.Unique)
		t += r.Total
		v += r.Valid
		u += r.Unique
	}
	fmt.Fprintf(tw, "Total\t%d\t%d\t%d\n", t, v, u)
	return tw.Flush()
}

// RenderFigure3 prints the triple-count distribution per source
// (Figure 3): for each source the percentage of queries with 0..11+
// triples, Valid (Unique).
func RenderFigure3(w io.Writer, reports []*SourceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Source")
	for i := 0; i <= 10; i++ {
		fmt.Fprintf(tw, "\t%d", i)
	}
	fmt.Fprintln(tw, "\t11+")
	for _, r := range reports {
		fmt.Fprintf(tw, "%s", r.Name)
		for i := 0; i < 12; i++ {
			fmt.Fprintf(tw, "\t%s (%s)",
				pct(r.TripleBuckets[i].V, r.CountedV),
				pct(r.TripleBuckets[i].U, r.CountedU))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// RenderTable3 prints the per-feature usage for a group (one half of
// Table 3).
func RenderTable3(w io.Writer, r *SourceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tAbsoluteV\tRelativeV\tAbsoluteU\tRelativeU\n", r.Name)
	for _, f := range sparql.Table3Features {
		c := r.Features[f]
		if c == nil {
			c = &Counter2{}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", f, c.V, pct(c.V, r.Valid), c.U, pct(c.U, r.Unique))
	}
	return tw.Flush()
}

// Table4Rows / Table5Rows are the operator-set rows in the papers' order.
var Table4Rows = []string{"none", "And", "Filter", "And, Filter"}
var Table5Rows = []string{
	"none", "And", "Filter", "And, Filter",
	"2RPQ", "And, 2RPQ", "Filter, 2RPQ", "And, Filter, 2RPQ",
}

// RenderOperatorSets prints Table 4 (rows = Table4Rows) or Table 5
// (rows = Table5Rows) for a group.
func RenderOperatorSets(w io.Writer, r *SourceReport, rows []string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Operator Set (%s)\tAbsoluteV\tRelativeV\tAbsoluteU\tRelativeU\n", r.Name)
	var subV, subU int
	for _, name := range rows {
		c := r.OperatorSets[name]
		if c == nil {
			c = &Counter2{}
		}
		subV += c.V
		subU += c.U
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", name, c.V, pct(c.V, r.Valid), c.U, pct(c.U, r.Unique))
	}
	label := "CQ+F subtotal"
	if len(rows) > 4 {
		label = "C2RPQ+F subtotal"
	}
	fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", label, subV, pct(subV, r.Valid), subU, pct(subU, r.Unique))
	return tw.Flush()
}

// RenderTable6 prints hypertree-width and free-connex acyclicity for the
// CQ (top) and CQ+F (bottom) fragments of a group.
func RenderTable6(w io.Writer, r *SourceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	part := func(title string, st *HypertreeStats) {
		fmt.Fprintf(tw, "%s: %s\tAbsoluteV\tRelativeV\tAbsoluteU\tRelativeU\n", r.Name, title)
		row := func(name string, c Counter2) {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", name, c.V, pct(c.V, st.Total.V), c.U, pct(c.U, st.Total.U))
		}
		row("FCA", st.FCA)
		row("htw<=1", st.Htw1)
		row("htw<=2", st.Htw2)
		row("htw<=3", st.Htw3)
		row("Total", st.Total)
	}
	part("CQ", &r.CQ)
	part("CQ+F", &r.CQF)
	return tw.Flush()
}

// RenderTable7 prints the cumulative shape analysis for graph-CQ+F
// queries, with constants (top) and without (bottom).
func RenderTable7(w io.Writer, r *SourceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	part := func(title string, levels *[numShapeLevels]Counter2) {
		fmt.Fprintf(tw, "graph-CQ+F/ %s (%s)\tAbsoluteV\tRelativeV\tAbsoluteU\tRelativeU\n", title, r.Name)
		cumV, cumU := 0, 0
		for lvl := ShapeNoEdge; lvl <= ShapeTW3; lvl++ {
			cumV += levels[lvl].V
			cumU += levels[lvl].U
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", lvl, cumV, pct(cumV, r.GraphCQF.V), cumU, pct(cumU, r.GraphCQF.U))
		}
		fmt.Fprintf(tw, "total\t%d\t%s\t%d\t%s\n", r.GraphCQF.V, pct(r.GraphCQF.V, r.GraphCQF.V), r.GraphCQF.U, pct(r.GraphCQF.U, r.GraphCQF.U))
	}
	part("with constants", &r.ShapeWith)
	part("without constants", &r.ShapeWithout)
	return tw.Flush()
}

// RenderTable8 prints the property-path type distribution of a group.
func RenderTable8(w io.Writer, r *SourceReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Expression Type (%s)\tAbsoluteV\tRelativeV\tAbsoluteU\tRelativeU\n", r.Name)
	for _, row := range propertypath.Table8Rows {
		c := r.PPRows[row]
		if c == nil {
			c = &Counter2{}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", row, c.V, pct(c.V, r.PPTotal.V), c.U, pct(c.U, r.PPTotal.U))
	}
	fmt.Fprintf(tw, "Total\t%d\t100%%\t%d\t100%%\n", r.PPTotal.V, r.PPTotal.U)
	return tw.Flush()
}

// RenderSection94 prints the well-designedness statistics.
func RenderSection94(w io.Writer, r *SourceReport) error {
	_, err := fmt.Fprintf(w, "%s: AFO queries %d (%d); well-designed %s (%s) of AFO; well-behaved %s (%s) of all\n",
		r.Name, r.AFO.V, r.AFO.U,
		pct(r.WellDesigned.V, r.AFO.V), pct(r.WellDesigned.U, r.AFO.U),
		pct(r.WellBehaved.V, r.Valid), pct(r.WellBehaved.U, r.Unique))
	return err
}

// RenderSection96 prints the simple-transitive-expression and
// tractability outlier counts.
func RenderSection96(w io.Writer, r *SourceReport) error {
	_, err := fmt.Fprintf(w, "%s: property paths %d (%d); outside STE %d (%d); outside C_tract %d (%d); outside T_tract %d (%d)\n",
		r.Name, r.PPTotal.V, r.PPTotal.U,
		r.NonSTE.V, r.NonSTE.U, r.NonCtract.V, r.NonCtract.U, r.NonTtract.V, r.NonTtract.U)
	return err
}

// RenderTable1 generates the synthetic Table 1 datasets and prints the
// treewidth bounds.
func RenderTable1(w io.Writer, seed int64, scale float64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\t#nodes\t#edges\tlower tw\tupper tw")
	for _, ds := range graphgen.Table1Datasets(seed, scale) {
		lb, ub := graph.Bounds(ds.Graph)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", ds.Name, ds.Graph.N(), ds.Graph.M(), lb, ub)
	}
	return tw.Flush()
}

// GroupReports splits per-source reports into the paper's two groups and
// merges each: DBpedia–BritM and Wikidata.
func GroupReports(reports []*SourceReport) (dbpedia, wikidata *SourceReport) {
	var dbp, wiki []*SourceReport
	for _, r := range reports {
		if strings.HasPrefix(r.Name, "Wiki") {
			wiki = append(wiki, r)
		} else {
			dbp = append(dbp, r)
		}
	}
	return Merge("DBpedia-BritM", dbp), Merge("Wikidata", wiki)
}
