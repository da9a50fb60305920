package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/loggen"
)

// goldenReportsHash is the SHA-256 of the JSON of every report
// TestAnalyzeQueriesGolden builds. It pins the analyzer's output on
// generated logs, whatever the worker count: a change to this hash is a
// change to the paper's tables, not a flaky test.
const goldenReportsHash = "4dec0b8cb00a6eebf644568b843e17c4407a5ccd81a2b669a185607b68026d15"

// TestAnalyzeQueriesGolden hashes the reports of every loggen source at
// three seeds and worker counts {1, 2, 4}. The streams are calibrated to
// the paper's duplicate rates, so they exercise first occurrences,
// raw repeats, canonical-form repeats and invalid queries in one run.
func TestAnalyzeQueriesGolden(t *testing.T) {
	const perStream = 1000
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range loggen.Sources() {
		for _, seed := range []int64{1, 2, 3} {
			g := loggen.NewGen(s, seed)
			qs := make([]string, perStream)
			for i := range qs {
				qs[i] = g.Next()
			}
			for _, workers := range []int{1, 2, 4} {
				if err := enc.Encode(AnalyzeQueries(s.Name, qs, workers)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenReportsHash {
		t.Fatalf("reports hash = %s, want %s", got, goldenReportsHash)
	}
}
