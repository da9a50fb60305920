// Package oracle is a seeded, reproducible differential-testing and
// metamorphic-oracle subsystem for the decision-procedure stack. Each
// Oracle pits independent implementations of the same problem against
// each other on randomly generated instances — regex membership via the
// memoized matcher vs. Brzozowski derivatives vs. the minimal DFA vs.
// the compiled Matcher, schema containment verdicts vs. randomized
// counterexample search over sampled documents, property-path evaluation
// vs. a derivative-product and brute-force path enumeration, SPARQL
// algebra evaluation vs. exhaustive assignment enumeration, the
// shard/merge pipeline vs. the sequential reference, and the service's
// warm caches vs. a cache-less server.
//
// Every trial is driven by a single int64 seed, so any divergence is
// replayable: RunTrial(o, seed) regenerates the exact instance. Oracles
// shrink failing inputs to minimal reproducers before reporting them.
package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Divergence describes one disagreement between implementations,
// already shrunk to a minimal reproducer.
type Divergence struct {
	// Oracle is the name of the oracle that found the disagreement.
	Oracle string
	// Seed is the trial seed that reproduces it deterministically.
	Seed int64
	// Input is the shrunk, human-readable reproducer.
	Input string
	// Detail names the implementations that disagreed, and how.
	Detail string
}

// ReplayCommand returns the rwdfuzz invocation that reruns exactly this
// trial.
func (d *Divergence) ReplayCommand() string {
	return fmt.Sprintf("go run ./cmd/rwdfuzz -oracle %s -replay %d", d.Oracle, d.Seed)
}

func (d *Divergence) String() string {
	return fmt.Sprintf("[%s seed=%d]\n  input:  %s\n  detail: %s\n  replay: %s",
		d.Oracle, d.Seed, d.Input, d.Detail, d.ReplayCommand())
}

// Oracle is one differential or metamorphic cross-check. Trial runs a
// single randomized comparison driven entirely by r; the returned
// divergence (nil when all implementations agree) must already be shrunk.
// Trial must be deterministic in r: the same seed regenerates the same
// instance and verdicts.
type Oracle interface {
	Name() string
	Description() string
	Trial(r *rand.Rand) *Divergence
}

// injectedBug names the oracle whose primary implementation is
// deliberately mutated, to prove the detector catches and shrinks real
// bugs. Empty means no mutation.
var injectedBug string

// SetInjectedBug enables (non-empty) or disables ("") the deliberate
// mutation for the named oracle.
func SetInjectedBug(oracle string) { injectedBug = oracle }

// All returns every registered oracle in stable order.
func All() []Oracle {
	return []Oracle{
		regexMembership{},
		regexContainment{},
		antichainContainment{},
		schemaContainment{},
		jsonSchemaContainment{},
		propertyPathEval{},
		sparqlEval{},
		shardMerge{},
		storeAnalysis{},
		cacheSoundness{},
	}
}

// Names returns the registered oracle names in stable order.
func Names() []string {
	var out []string
	for _, o := range All() {
		out = append(out, o.Name())
	}
	return out
}

// Select resolves oracle names ("all" or a subset) to oracles.
func Select(names []string) ([]Oracle, error) {
	if len(names) == 1 && names[0] == "all" {
		return All(), nil
	}
	byName := map[string]Oracle{}
	for _, o := range All() {
		byName[o.Name()] = o
	}
	var out []Oracle
	for _, n := range names {
		o, ok := byName[n]
		if !ok {
			known := Names()
			sort.Strings(known)
			return nil, fmt.Errorf("unknown oracle %q (known: %v)", n, known)
		}
		out = append(out, o)
	}
	return out, nil
}

// RunTrial runs one trial of o with the given seed, stamping any
// divergence with the oracle name and seed so it can be replayed.
func RunTrial(o Oracle, trialSeed int64) *Divergence {
	r := rand.New(rand.NewSource(trialSeed))
	d := o.Trial(r)
	if d != nil {
		d.Oracle = o.Name()
		d.Seed = trialSeed
	}
	return d
}

// Stats summarizes one oracle run.
type Stats struct {
	Oracle      string
	Trials      int
	Elapsed     time.Duration
	Divergences []*Divergence
}

// Run drives o with trial seeds seed, seed+1, … until the budget is
// exhausted or maxDivergences have been found (<= 0 means stop at the
// first).
func Run(o Oracle, seed int64, budget time.Duration, maxDivergences int) *Stats {
	deadline := time.Now().Add(budget)
	return run(o, seed, maxDivergences, func(int64) bool { return time.Now().Before(deadline) })
}

// RunTrials drives o with exactly trials seeds seed, …, seed+trials-1,
// independent of wall time — the form CI uses so a required trial count
// (e.g. the 10k-case antichain run) does not silently shrink on slow
// runners. It stops early only after maxDivergences findings (<= 0
// means stop at the first).
func RunTrials(o Oracle, seed int64, trials int, maxDivergences int) *Stats {
	return run(o, seed, maxDivergences, func(trial int64) bool { return trial < int64(trials) })
}

// run drives o with trial seeds seed, seed+1, … while more(trial) holds,
// stopping early after maxDivergences findings (at least one).
func run(o Oracle, seed int64, maxDivergences int, more func(trial int64) bool) *Stats {
	start := time.Now()
	st := &Stats{Oracle: o.Name()}
	for trial := int64(0); more(trial); trial++ {
		st.Trials++
		if d := RunTrial(o, seed+trial); d != nil {
			st.Divergences = append(st.Divergences, d)
			if len(st.Divergences) >= max(maxDivergences, 1) {
				break
			}
		}
	}
	st.Elapsed = time.Since(start)
	return st
}
