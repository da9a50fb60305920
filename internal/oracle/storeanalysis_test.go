package oracle

import (
	"strings"
	"testing"
)

// TestStoreAnalysisStaleMemoCaught proves the store-analysis oracle
// catches a stats memo that ignores the commit generation, and that the
// reported seed replays to the same divergence.
func TestStoreAnalysisStaleMemoCaught(t *testing.T) {
	SetInjectedBug(injectStaleMemo)
	defer SetInjectedBug("")
	o, err := Select([]string{"store-analysis"})
	if err != nil {
		t.Fatal(err)
	}
	var d *Divergence
	for seed := int64(1); seed <= 20; seed++ {
		if d = RunTrial(o[0], seed); d != nil {
			break
		}
	}
	if d == nil {
		t.Fatal("stale memo not caught in 20 trials")
	}
	t.Logf("caught: %s", d)
	if !strings.Contains(d.Detail, "rdf stats") {
		t.Fatalf("divergence does not implicate the stats: %s", d.Detail)
	}
	d2 := RunTrial(o[0], d.Seed)
	if d2 == nil || d2.Input != d.Input || d2.Detail != d.Detail {
		t.Fatalf("replay of seed %d did not reproduce:\nwant %s\ngot  %v", d.Seed, d, d2)
	}
}
