package inference

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/determinism"
	"repro/internal/regex"
)

// goldenInferenceHash is the hash of every learner's output over the
// seeded samples of TestInferenceGolden. No oracle checks which
// expression a learner returns, only that it contains the sample; this
// pin catches any change in the output itself, such as the order in
// which RWR collapses strongly connected components.
const goldenInferenceHash = "134d7181a881ff3e1e1989ceca39733c667195da363fea1b41fb1ed9f0723c22"

func TestInferenceGolden(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	g := regex.DefaultGen([]string{"a", "b", "c", "d", "e"})
	h := sha256.New()
	for i := 0; i < 20000; i++ {
		e := g.Random(r)
		var s Sample
		for j := 1 + r.Intn(8); j > 0; j-- {
			if w, ok := regex.RandomWord(e, r); ok {
				s = append(s, w)
			}
		}
		best, k := InferBestKORECtx(context.Background(), s, 3, determinism.IsDeterministic)
		fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s|%d\n", i,
			InferSORE(s), InferCHARE(s), InferKORE(s, 2), InferKORE(s, 3), best, k)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenInferenceHash {
		t.Errorf("learner outputs hash to %s, want %s", got, goldenInferenceHash)
	}
}

// characteristicSampleHash is the hash of the characteristic samples of
// TestCharacteristicSampleGolden's seeded SOREs. A change means other
// words or another order, not a flaky test.
const characteristicSampleHash = "dc5a488ce38f444cda6126cf6c2b2e905081fc5abcb21ac3ece50f7687caaf31"

// TestCharacteristicSampleGolden hashes CharacteristicSample over 1,000
// seeded SOREs: random expressions whose symbol occurrences are
// relabeled s0, s1, … in preorder. Every word must be in the language.
func TestCharacteristicSampleGolden(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := regex.DefaultGen([]string{"a"})
	h := sha256.New()
	for i := 0; i < 1000; i++ {
		g.MaxDepth = 1 + r.Intn(4)
		next := 0
		e := relabel(g.Random(r), &next)
		cs := CharacteristicSample(e)
		for _, w := range cs {
			if !regex.Matches(e, w) {
				t.Fatalf("characteristic sample word %v outside L(%s)", w, e)
			}
		}
		fmt.Fprintf(h, "%s|%q\n", e, cs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != characteristicSampleHash {
		t.Errorf("characteristic samples hash to %s, want %s", got, characteristicSampleHash)
	}
}

// relabel returns e with its symbol occurrences, in preorder, labeled
// s<next>, s<next+1>, …, advancing next past them.
func relabel(e *regex.Expr, next *int) *regex.Expr {
	out := &regex.Expr{Kind: e.Kind, Sym: e.Sym}
	if e.Kind == regex.Symbol {
		out.Sym = fmt.Sprintf("s%d", *next)
		*next++
	}
	for _, s := range e.Subs {
		out.Subs = append(out.Subs, relabel(s, next))
	}
	return out
}
