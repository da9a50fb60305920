package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
)

// TestLowerBoundMMDPlusDeterministic pins that the MMD+ bound does not
// depend on map iteration order: on Table 1's web-like and communication
// analogues, where least-degree neighbours tie, 50 calls give one value.
func TestLowerBoundMMDPlusDeterministic(t *testing.T) {
	for _, ds := range graphgen.Table1Datasets(1, 0.2) {
		if ds.Name != "Wikipedia" && ds.Name != "Gnutella" {
			continue
		}
		want := graph.LowerBoundMMDPlus(ds.Graph)
		for i := 1; i < 50; i++ {
			if got := graph.LowerBoundMMDPlus(ds.Graph); got != want {
				t.Fatalf("%s: call %d gave %d, first call %d", ds.Name, i, got, want)
			}
		}
	}
}
