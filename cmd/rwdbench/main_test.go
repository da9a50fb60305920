package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as rwdbench itself, so the
// exit code and output are checked as a script would see them.
func TestMain(m *testing.M) {
	if os.Getenv("RWDBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownExperiment pins the usage error: a misspelled -experiment
// exits 2 with nothing on stdout and the valid names on stderr, instead
// of silently running nothing.
func TestUnknownExperiment(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "tabel1")
	cmd.Env = append(os.Environ(), "RWDBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want 2 (stderr %q)", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "tabel1"`) {
		t.Errorf("stderr = %q, want it to name the bad experiment", msg)
	}
	for _, name := range []string{"all", "table1", "figure3", "tractability", "rdfstats"} {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr = %q, want it to list %q", msg, name)
		}
	}
}

// TestXMLQualityDeterministic pins that the error-category rows come out
// in a fixed order (count descending, then name), so two runs at the
// same seed print byte-identical output.
func TestXMLQualityDeterministic(t *testing.T) {
	var outs [2]string
	for i := range outs {
		cmd := exec.Command(os.Args[0], "-experiment", "xmlquality", "-seed", "1")
		cmd.Env = append(os.Environ(), "RWDBENCH_RUN_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		outs[i] = string(out)
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "top-3 error categories") {
		t.Fatalf("unexpected output:\n%s", outs[0])
	}
}

// TestAllExperimentsDeterministic pins that every experiment writes to
// stdout through the study and depends only on the seed: -experiment all
// prints the same bytes on two runs and at -workers 1 and -workers 4.
func TestAllExperimentsDeterministic(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "4", "4"} {
		cmd := exec.Command(os.Args[0], "-experiment", "all", "-seed", "1",
			"-scale", "500000", "-graphscale", "0.05", "-workers", workers)
		cmd.Env = append(os.Environ(), "RWDBENCH_RUN_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		outs = append(outs, string(out))
	}
	for i, out := range outs[1:] {
		if out != outs[0] {
			t.Fatalf("run %d differs from the -workers 1 run:\n%s\n---\n%s", i+1, outs[0], out)
		}
	}
	for _, e := range experiments {
		if !strings.Contains(outs[0], "==== "+strings.ToUpper(e.name)+" ====") {
			t.Errorf("stdout lacks the %s section", e.name)
		}
	}
	if !strings.Contains(outs[0], "predicate lists:") {
		t.Errorf("rdfstats printed nothing to stdout:\n%s", outs[0])
	}
}

// TestWriteErrorExitsOne pins that a failed write to stdout is reported
// and exits 1, also for the experiments that print without a renderer.
func TestWriteErrorExitsOne(t *testing.T) {
	readOnly, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	cmd := exec.Command(os.Args[0], "-experiment", "xmlquality")
	cmd.Env = append(os.Environ(), "RWDBENCH_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = readOnly, &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want 1 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "render:") {
		t.Errorf("stderr = %q, want the write error", stderr.String())
	}
}
