package oracle

import (
	"strings"
	"testing"
)

// TestSchemaInjectedBugCaught proves the schema oracle detects a
// streaming validator that accepts every element at its close within a
// modest seed band, and that the reported seed replays.
func TestSchemaInjectedBugCaught(t *testing.T) {
	SetInjectedBug("schema-containment")
	defer SetInjectedBug("")
	o, err := Select([]string{"schema-containment"})
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
	if !strings.Contains(d.Detail, "ValidateStream") {
		t.Fatalf("divergence does not implicate the streaming validator: %s", d.Detail)
	}
	d2 := RunTrial(o[0], d.Seed)
	if d2 == nil || d2.Input != d.Input || d2.Detail != d.Detail {
		t.Fatalf("replay of seed %d did not reproduce:\nwant %s\ngot  %v", d.Seed, d, d2)
	}
}
