package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
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

	eng := profile.Replay(traces, profile.Config{})
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

	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = cmdTop([]string{"-url", ts.URL, "-by", "states_expanded", "-n", "1"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), fast.TraceID()+" ") || !strings.Contains(string(got), "states_expanded=1000") {
		t.Fatalf("top -by states_expanded printed %q, want trace %s with states_expanded=1000", got, fast.TraceID())
	}
}
