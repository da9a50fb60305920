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
