package oracle

import (
	"strings"
	"testing"
)

// trialsFor bounds per-oracle trial counts so the property tests stay
// fast; the rwdfuzz driver runs the same oracles with time budgets.
var trialsFor = map[string]int64{
	"regex-membership":       150,
	"antichain-containment":  80,
	"schema-containment":     40,
	"jsonschema-containment": 30,
	"propertypath-eval":      60,
	"sparql-eval":            60,
	"shard-merge":            6,
	"store-analysis":         6,
	"cache-soundness":        40,
}

// TestOraclesAgree is the go-test exposure of every differential oracle:
// a fixed band of seeds must produce zero divergences.
func TestOraclesAgree(t *testing.T) {
	for _, o := range All() {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			t.Parallel()
			n, ok := trialsFor[o.Name()]
			if !ok {
				t.Fatalf("no trial budget for oracle %s; add it to trialsFor", o.Name())
			}
			for seed := int64(1); seed <= n; seed++ {
				if d := RunTrial(o, seed); d != nil {
					t.Fatalf("divergence:\n%s", d)
				}
			}
		})
	}
	// regex-containment merged into antichain-containment, which runs
	// all of its checks; its band of 60 trials runs on as the merged
	// oracle's next 60 seeds.
	t.Run("regex-containment", func(t *testing.T) {
		t.Parallel()
		from := trialsFor["antichain-containment"] + 1
		for seed := from; seed < from+60; seed++ {
			if d := RunTrial(antichainContainment{}, seed); d != nil {
				t.Fatalf("divergence:\n%s", d)
			}
		}
	})
}

// TestRegistry pins the driver plumbing: unique names, Select round-trip,
// and the error on unknown names.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range All() {
		if o.Name() == "" || o.Description() == "" {
			t.Fatalf("oracle with empty name or description: %#v", o)
		}
		if seen[o.Name()] {
			t.Fatalf("duplicate oracle name %s", o.Name())
		}
		seen[o.Name()] = true
	}
	all, err := Select([]string{"all"})
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(all) = %d oracles, err=%v", len(all), err)
	}
	two, err := Select([]string{"regex-membership", "shard-merge"})
	if err != nil || len(two) != 2 {
		t.Fatalf("Select by name failed: %v", err)
	}
	if _, err := Select([]string{"no-such-oracle"}); err == nil {
		t.Fatal("Select accepted an unknown oracle name")
	}
}

// TestInjectedBugCaughtAndShrunk is the acceptance check for the whole
// subsystem: a deliberate mutation in one membership implementation must
// be caught within a modest trial band and shrunk to a minimal
// reproducer, and the reported seed must replay to the same divergence.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	SetInjectedBug("regex-membership")
	defer SetInjectedBug("")
	o, err := Select([]string{"regex-membership"})
	if err != nil {
		t.Fatal(err)
	}
	var d *Divergence
	var trials int64
	for seed := int64(1); seed <= 500; seed++ {
		trials = seed
		if d = RunTrial(o[0], seed); d != nil {
			break
		}
	}
	if d == nil {
		t.Fatal("injected bug not caught in 500 trials")
	}
	t.Logf("caught after %d trials: %s", trials, d)

	// the mutation flips the DFA verdict on words of length >= 2, so the
	// minimal reproducer is a 2-symbol word and a single-position regex
	if !strings.Contains(d.Detail, "DeterminizedDFA") {
		t.Fatalf("divergence does not implicate the mutated implementation: %s", d.Detail)
	}
	input := d.Input
	wordPart := input[strings.Index(input, "word=")+len("word="):]
	word := strings.Trim(wordPart, "\"")
	if n := len(strings.Fields(word)); n != 2 {
		t.Fatalf("reproducer word not shrunk to the minimal length 2: %q (input %s)", word, input)
	}
	exprPart := strings.TrimPrefix(input[:strings.Index(input, " word=")], "expr=")
	if len(exprPart) > 12 {
		t.Fatalf("reproducer expression not shrunk: %q", exprPart)
	}

	// replaying the reported seed must reproduce the divergence verbatim
	d2 := RunTrial(o[0], d.Seed)
	if d2 == nil || d2.Input != d.Input || d2.Detail != d.Detail {
		t.Fatalf("replay of seed %d did not reproduce the divergence:\nwant %s\ngot  %v", d.Seed, d, d2)
	}
	if !strings.Contains(d.ReplayCommand(), "rwdfuzz -oracle regex-membership -replay") {
		t.Fatalf("replay command malformed: %s", d.ReplayCommand())
	}
}

// TestTrialsDeterministic pins seed-reproducibility for every oracle:
// the same seed must not diverge on one run and agree on another.
func TestTrialsDeterministic(t *testing.T) {
	for _, o := range All() {
		for seed := int64(1); seed <= 5; seed++ {
			a, b := RunTrial(o, seed), RunTrial(o, seed)
			if (a == nil) != (b == nil) {
				t.Fatalf("%s seed %d: nondeterministic trial outcome", o.Name(), seed)
			}
			if a != nil && (a.Input != b.Input || a.Detail != b.Detail) {
				t.Fatalf("%s seed %d: nondeterministic divergence detail", o.Name(), seed)
			}
		}
	}
}

// TestShrinkers pins the shrinking helpers on known-shape predicates.
func TestShrinkers(t *testing.T) {
	w := shrinkWord([]string{"a", "b", "a", "c", "a"}, func(c []string) bool {
		n := 0
		for _, s := range c {
			if s == "a" {
				n++
			}
		}
		return n >= 2
	})
	if len(w) != 2 || w[0] != "a" || w[1] != "a" {
		t.Fatalf("shrinkWord kept %v, want [a a]", w)
	}

	xs := shrinkList([]int{5, 1, 9, 3, 9, 2}, func(c []int) bool {
		n := 0
		for _, x := range c {
			if x == 9 {
				n++
			}
		}
		return n >= 1
	})
	if len(xs) != 1 || xs[0] != 9 {
		t.Fatalf("shrinkList kept %v, want [9]", xs)
	}
}
