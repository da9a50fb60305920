package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/obs/recorder"
	"repro/internal/service"
)

var testEpoch = time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)

// mkTrace builds a synthetic recorded trace the way the server would
// export one: an "http."-prefixed root carrying the status attribute
// and a child engine span carrying cost counters.
func mkTrace(id, op, status string, start time.Time, durMS float64, engine string, counters map[string]int64) *recorder.Trace {
	child := &obs.Node{Name: "work", DurationMS: durMS, Counters: counters}
	if engine != "" {
		child.Attrs = map[string]string{recorder.EngineAttr: engine}
	}
	return &recorder.Trace{
		TraceID:    id,
		Op:         op,
		Status:     status,
		Start:      start,
		DurationMS: durMS,
		Root: &obs.Node{
			Name:       "http." + op,
			TraceID:    id,
			Attrs:      map[string]string{recorder.StatusAttr: status},
			DurationMS: durMS,
			Children:   []*obs.Node{child},
		},
	}
}

func TestCheckCounterKnown(t *testing.T) {
	traces := []*recorder.Trace{
		mkTrace("t1", "containment", "200", testEpoch, 2, "antichain",
			map[string]int64{"states_expanded": 40}),
		mkTrace("t2", "containment", "200", testEpoch, 3, "antichain",
			map[string]int64{"antichain_pruned": 7}),
	}
	if err := checkCounterKnown(traces, "states_expanded"); err != nil {
		t.Fatalf("known counter rejected: %v", err)
	}
	err := checkCounterKnown(traces, "bogus_counter")
	if err == nil {
		t.Fatal("unknown counter accepted")
	}
	if _, ok := err.(usageError); !ok {
		t.Fatalf("want usageError (exit 2), got %T: %v", err, err)
	}
	for _, want := range []string{"bogus_counter", "states_expanded", "antichain_pruned"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if err := checkCounterKnown(nil, "anything"); err != nil {
		t.Fatalf("empty trace set should not be a usage error: %v", err)
	}
}

// TestFetchSnapshotDir replays an on-disk NDJSON log through the
// profile engine and checks the snapshot is exactly what a direct
// profile.Replay of the same traces produces.
func TestFetchSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	log, err := recorder.OpenLog(dir, recorder.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var traces []*recorder.Trace
	for i := 0; i < 30; i++ {
		tr := mkTrace(fmt.Sprintf("t%02d", i), "containment", "200",
			testEpoch.Add(time.Duration(i)*time.Second),
			1+float64(i%7), "antichain",
			map[string]int64{"states_expanded": int64(20 + 5*i)})
		traces = append(traces, tr)
		if err := log.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := fetchSnapshot(&source{dir: dir}, profile.WindowAll, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observed != 30 {
		t.Fatalf("observed %d, want 30", snap.Observed)
	}
	if len(snap.Lifetime) != 1 {
		t.Fatalf("lifetime rows: %d, want 1", len(snap.Lifetime))
	}
	row := snap.Lifetime[0]
	if row.Op != "containment" || row.Engine != "antichain" || row.Requests != 30 {
		t.Fatalf("bad lifetime row: %+v", row)
	}
	if row.DurationMS.P99 < row.DurationMS.P50 {
		t.Fatalf("p99 %.3f < p50 %.3f", row.DurationMS.P99, row.DurationMS.P50)
	}
	if len(snap.Window) == 0 {
		t.Fatal("no live-window rows: snapshot must be taken at the log's tail, not wall clock")
	}

	eng := profile.Replay(traces)
	want := eng.Snapshot(eng.LastSeen(), profile.WindowAll, profile.Filter{})
	got, _ := json.Marshal(snap)
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Fatalf("dir snapshot differs from direct replay:\n got %s\nwant %s", got, wantJSON)
	}

	// Filters pass through to the replayed engine too.
	filtered, err := fetchSnapshot(&source{dir: dir}, profile.WindowLifetime, "containment", "-")
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Lifetime) != 0 {
		t.Fatalf("engine=- (no engine ran) matched %d rows, want 0", len(filtered.Lifetime))
	}
}

// TestTopByCounterSeesEveryServerTrace ranks a live server's recorder by
// a counter when the trace with the largest counter is the fastest of
// more than 10,000: the ranking must see every recorded trace, not only
// the slowest ones.
func TestTopByCounterSeesEveryServerTrace(t *testing.T) {
	const slow = 10000
	srv := service.New(service.Config{TraceCapacity: slow + 1, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Every slow root span starts before the fast one and finishes after
	// it, so the fast trace is strictly the shortest.
	spans := make([]*obs.Span, slow)
	for i := range spans {
		_, spans[i] = srv.Tracer().StartRoot(context.Background(), "http.containment")
		spans[i].Count("states_expanded", 1)
	}
	_, fast := srv.Tracer().StartRoot(context.Background(), "http.containment")
	fast.Count("states_expanded", 1000)
	fast.Finish()
	for _, sp := range spans {
		sp.Finish()
	}
	if got := srv.FlightStats().Retained; got != slow+1 {
		t.Fatalf("recorder retains %d traces, want %d", got, slow+1)
	}

	got, _ := runCmd(t, cmdTop, "-url", ts.URL, "-by", "states_expanded", "-n", "1")
	if !strings.HasPrefix(got, fast.TraceID()+" ") || !strings.Contains(got, "states_expanded=1000") {
		t.Fatalf("top -by states_expanded printed %q, want trace %s with states_expanded=1000", got, fast.TraceID())
	}
}

// runCmd runs a command with stdout and stderr captured and fails the
// test if it returns an error.
func runCmd(t *testing.T, cmd func([]string) error, args ...string) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	err = cmd(args)
	os.Stdout, os.Stderr = savedOut, savedErr
	outF.Close()
	errF.Close()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out, _ := os.ReadFile(outF.Name())
	errOut, _ := os.ReadFile(errF.Name())
	return string(out), string(errOut)
}

// traceIDs returns the first field of every output line.
func traceIDs(out string) []string {
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ids = append(ids, f[0])
		}
	}
	return ids
}

// TestTailLimitZeroLiveAndFromDir checks that tail -n 0 means the
// default limit both against a server and from its -trace-dir, and that
// the two modes print the same traces.
func TestTailLimitZeroLiveAndFromDir(t *testing.T) {
	dir := t.TempDir()
	tlog, err := recorder.OpenLog(dir, recorder.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{TraceLog: tlog, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < recorder.DefaultLimit+10; i++ {
		_, sp := srv.Tracer().StartRoot(context.Background(), "http.containment")
		sp.Finish()
	}
	if err := tlog.Close(); err != nil {
		t.Fatal(err)
	}

	live, _ := runCmd(t, cmdTail, "-url", ts.URL, "-n", "0")
	fromDir, _ := runCmd(t, cmdTail, "-trace-dir", dir, "-n", "0")
	liveIDs, dirIDs := traceIDs(live), traceIDs(fromDir)
	if len(liveIDs) != recorder.DefaultLimit {
		t.Fatalf("live tail -n 0 printed %d traces, want %d", len(liveIDs), recorder.DefaultLimit)
	}
	if !slices.Equal(liveIDs, dirIDs) {
		t.Fatalf("tail -n 0 differs:\n live %v\n dir  %v", liveIDs, dirIDs)
	}
}

// TestTraceDirReportsTornLines checks that every command reading a
// -trace-dir reports the log lines it skipped.
func TestTraceDirReportsTornLines(t *testing.T) {
	dir := t.TempDir()
	tlog, err := recorder.OpenLog(dir, recorder.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := mkTrace("t01", "containment", "200", testEpoch, 2, "antichain",
		map[string]int64{"states_expanded": 40})
	if err := tlog.Append(tr); err != nil {
		t.Fatal(err)
	}
	if err := tlog.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("log files %v, %v; want one", files, err)
	}
	f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trace_id":"t02","op":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for name, cmd := range map[string]func([]string) error{
		"tail": cmdTail, "top": cmdTop, "export": cmdExport, "stats": cmdStats, "show": cmdShow,
	} {
		args := []string{"-trace-dir", dir}
		switch name {
		case "export":
			args = append(args, "-perfetto")
		case "show":
			args = append(args, "t01")
		}
		stdout, stderr := runCmd(t, cmd, args...)
		if !strings.Contains(stderr, "1 torn/damaged log line(s) skipped") {
			t.Errorf("%s -trace-dir: stderr %q does not report the torn line", name, stderr)
		}
		if name == "show" && !strings.HasPrefix(stdout, "trace t01 ") {
			t.Errorf("show -trace-dir printed %q, want trace t01", stdout)
		}
	}
}
