package main

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/xmllite"
)

// TestMain lets a test re-run this binary as rwdanalyze itself, so the
// exit codes are checked as a script would see them.
func TestMain(m *testing.M) {
	if os.Getenv("RWDANALYZE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runAnalyze(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RWDANALYZE_RUN_MAIN=1")
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// testStore commits a log corpus "logs" and a triples corpus "graph".
func testStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestLog(ctx, "logs", []string{"SELECT ?x WHERE { ?x ?p ?y }"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestTriples(ctx, "graph", []rdf.Triple{{S: "a", P: "p", O: "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestExitCodes(t *testing.T) {
	dir := testStore(t)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"rdf on triples", []string{"-kind", "rdf", "-corpus", "graph"}, 0},
		{"sparql on log", []string{"-kind", "sparql", "-corpus", "logs"}, 0},
		{"rdf on log", []string{"-kind", "rdf", "-corpus", "logs"}, 2},
		{"sparql on triples", []string{"-kind", "sparql", "-corpus", "graph"}, 2},
	} {
		if got := runAnalyze(t, append(tc.args, "-store-dir", dir)...); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment to damage: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // the offset table's last byte: the data CRC fails
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runAnalyze(t, "-kind", "rdf", "-store-dir", dir, "-corpus", "graph"); got != exitBadStore {
		t.Errorf("corrupt store: exit %d, want %d", got, exitBadStore)
	}
}

// TestXMLCategoriesDeterministic pins that -kind xml prints its error
// categories in a fixed order (count descending, then name): two runs
// over one corpus print the same bytes.
func TestXMLCategoriesDeterministic(t *testing.T) {
	g := xmllite.DefaultCorpusGen()
	r := rand.New(rand.NewSource(1))
	var corpus strings.Builder
	for i := 0; i < 2000; i++ {
		corpus.WriteString(strings.ReplaceAll(g.Document(r), "\n", " ") + "\n")
	}
	file := filepath.Join(t.TempDir(), "corpus.txt")
	if err := os.WriteFile(file, []byte(corpus.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i := range outs {
		cmd := exec.Command(os.Args[0], "-kind", "xml", "-file", file)
		cmd.Env = append(os.Environ(), "RWDANALYZE_RUN_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		outs[i] = string(out)
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0], outs[1])
	}
	if strings.Count(outs[0], "\n") < 3 {
		t.Fatalf("expected several error categories:\n%s", outs[0])
	}
}
