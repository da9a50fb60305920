package oracle

import (
	"strings"
	"testing"
)

// TestAntichainInjectedBugCaught proves the antichain oracle detects a
// deliberately mutated engine verdict within a modest seed band, shrinks
// the reproducer, and replays deterministically.
func TestAntichainInjectedBugCaught(t *testing.T) {
	SetInjectedBug("antichain-containment")
	defer SetInjectedBug("")
	o, err := Select([]string{"antichain-containment"})
	if err != nil {
		t.Fatal(err)
	}
	var d *Divergence
	for seed := int64(1); seed <= 300; seed++ {
		if d = RunTrial(o[0], seed); d != nil {
			break
		}
	}
	if d == nil {
		t.Fatal("injected bug not caught in 300 trials")
	}
	t.Logf("caught: %s", d)
	if !strings.Contains(d.Detail, "antichain") && !strings.Contains(d.Detail, "Equivalent") {
		t.Fatalf("divergence does not implicate the engine: %s", d.Detail)
	}
	// the mutation flips the verdict when the right side has >= 2
	// positions, so the shrunk right side must stay tiny
	if len(d.Input) > 60 {
		t.Fatalf("reproducer not shrunk: %q", d.Input)
	}
	d2 := RunTrial(o[0], d.Seed)
	if d2 == nil || d2.Input != d.Input || d2.Detail != d.Detail {
		t.Fatalf("replay of seed %d did not reproduce:\nwant %s\ngot  %v", d.Seed, d, d2)
	}
}

// TestRunTrials pins the exact-count driver CI relies on: the trial
// count must not depend on wall time, and the early-stop bound must
// hold under an injected bug.
func TestRunTrials(t *testing.T) {
	o, err := Select([]string{"antichain-containment"})
	if err != nil {
		t.Fatal(err)
	}
	st := RunTrials(o[0], 1, 50, 1)
	if st.Trials != 50 || len(st.Divergences) != 0 {
		t.Fatalf("trials=%d divergences=%d, want 50 and 0", st.Trials, len(st.Divergences))
	}

	SetInjectedBug("antichain-containment")
	defer SetInjectedBug("")
	st = RunTrials(o[0], 1, 1000, 1)
	if len(st.Divergences) != 1 {
		t.Fatalf("divergences=%d under injected bug, want 1", len(st.Divergences))
	}
	if st.Trials >= 1000 {
		t.Fatalf("trials=%d, want early stop after the first divergence", st.Trials)
	}
}
