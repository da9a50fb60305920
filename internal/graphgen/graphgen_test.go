package graphgen

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestTable1Regimes(t *testing.T) {
	// The ordering that makes Table 1 interesting: hierarchical ≪ road ≪
	// communication ≪ web-like treewidth, relative to graph size.
	r := rand.New(rand.NewSource(1))
	road := RoadNetwork(r, 20, 12)
	web := WebLike(r, 400, 10)
	comm := Communication(r, 400)
	gen := Genealogy(r, 400)

	lbRoad, ubRoad := graph.Bounds(road)
	lbWeb, ubWeb := graph.Bounds(web)
	lbComm, ubComm := graph.Bounds(comm)
	lbGen, ubGen := graph.Bounds(gen)

	if !(lbRoad <= ubRoad && lbWeb <= ubWeb && lbComm <= ubComm && lbGen <= ubGen) {
		t.Fatal("bounds inverted")
	}
	// genealogy is nearly a tree: tiny bounds
	if ubGen > 40 {
		t.Errorf("genealogy upper bound = %d, want small", ubGen)
	}
	// the web-like graph has a much denser core than the road network of
	// comparable edge count per node
	if lbWeb <= lbRoad {
		t.Errorf("web lower bound %d should exceed road %d", lbWeb, lbRoad)
	}
	if ubWeb <= ubGen {
		t.Errorf("web upper bound %d should exceed genealogy %d", ubWeb, ubGen)
	}
}

func TestWebLikePowerLaw(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := WebLike(r, 2000, 3)
	degs := make([]int, g.N())
	for v := range degs {
		degs[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// heavy tail: max degree far above median
	if degs[0] < 5*degs[len(degs)/2] {
		t.Errorf("max degree %d vs median %d: not heavy-tailed", degs[0], degs[len(degs)/2])
	}
	if g.M() < 3*2000-10 {
		t.Errorf("edge count = %d", g.M())
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := Table1Datasets(7, 0.2)
	b := Table1Datasets(7, 0.2)
	for i := range a {
		if a[i].Graph.N() != b[i].Graph.N() || a[i].Graph.M() != b[i].Graph.M() {
			t.Errorf("%s: nondeterministic generation", a[i].Name)
		}
	}
}

func TestRoadNetworkIsSparse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := RoadNetwork(r, 30, 30)
	if g.M() > 3*g.N() {
		t.Errorf("road network too dense: n=%d m=%d", g.N(), g.M())
	}
}
