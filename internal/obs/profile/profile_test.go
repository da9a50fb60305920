package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/recorder"
)

var testEpoch = time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)

// mkTrace builds a finished trace the way the service records them: the
// op on the root, counters and the engine attr on a child span node.
func mkTrace(id, op, engine, status string, start time.Time, durMS float64, counters map[string]int64) *recorder.Trace {
	root := &obs.Node{
		Name:       "http." + op,
		DurationMS: durMS,
		Attrs:      map[string]string{recorder.StatusAttr: status},
	}
	child := &obs.Node{Name: "work", DurationMS: durMS * 0.9, Counters: counters}
	if engine != "" {
		child.Attrs = map[string]string{recorder.EngineAttr: engine}
	}
	root.Children = []*obs.Node{child}
	return &recorder.Trace{
		TraceID:    id,
		Op:         op,
		Status:     status,
		Start:      start,
		DurationMS: durMS,
		Root:       root,
	}
}

// TestEngineWindowVsLifetime pins the fixed 60s window of 6s buckets:
// snapshotted at LastSeen, a bucket starting under 60s earlier is in the
// window and one starting 60s or more earlier is not, while the lifetime
// row keeps every trace.
func TestEngineWindowVsLifetime(t *testing.T) {
	e := New(Config{})
	at := func(sec int) time.Time { return testEpoch.Add(time.Duration(sec) * time.Second) }
	for _, tr := range []struct {
		id  string
		sec int
	}{
		{"old0", 0}, {"old1", 0}, {"old2", 0},
		{"edge", 29}, // bucket starts at 24s, 66s before the snapshot
		{"mid", 40},  // bucket starts at 36s, 54s before the snapshot
		{"new0", 90}, {"new1", 90},
	} {
		e.Observe(mkTrace(tr.id, "containment", "antichain", "200",
			at(tr.sec), 20, map[string]int64{"states_expanded": 100}))
	}
	snap := e.Snapshot(e.LastSeen(), WindowAll, Filter{})
	if snap.WindowSeconds != 60 {
		t.Errorf("window_seconds = %g, want 60", snap.WindowSeconds)
	}
	if len(snap.Lifetime) != 1 {
		t.Fatalf("lifetime rows = %d, want 1", len(snap.Lifetime))
	}
	if got := snap.Lifetime[0].Requests; got != 7 {
		t.Errorf("lifetime requests = %d, want 7", got)
	}
	if len(snap.Window) != 1 {
		t.Fatalf("window rows = %d, want 1", len(snap.Window))
	}
	if got := snap.Window[0].Requests; got != 3 {
		t.Errorf("window requests = %d, want 3 (old and edge traces must have aged out)", got)
	}
	if eng := snap.Window[0].Engine; eng != "antichain" {
		t.Errorf("engine = %q, want antichain", eng)
	}
	if snap.Observed != 7 {
		t.Errorf("observed = %d, want 7", snap.Observed)
	}
}

// TestRowDurationIsOneSketch: with mixed statuses, a row's duration_ms is
// what one Sketch fed every duration of the row reports, in both the
// window and the lifetime view, and its status counts sum to requests.
func TestRowDurationIsOneSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	statuses := []string{"200", "400", "429", "504"}
	e := New(Config{})
	want := &Sketch{}
	for i := 0; i < 3000; i++ {
		d := math.Exp(rng.NormFloat64() * 1.5)
		want.Observe(d)
		e.Observe(mkTrace(fmt.Sprintf("t%d", i), "containment", "antichain", statuses[rng.Intn(len(statuses))],
			testEpoch.Add(time.Duration(i)*10*time.Millisecond), d, nil))
	}
	snap := e.Snapshot(e.LastSeen(), WindowAll, Filter{})
	for view, rows := range map[string][]OpProfile{"window": snap.Window, "lifetime": snap.Lifetime} {
		if len(rows) != 1 {
			t.Fatalf("%s rows = %d, want 1", view, len(rows))
		}
		row := rows[0]
		got, exp := row.DurationMS, distStats(want)
		if got.Count != exp.Count || got.Min != exp.Min || got.Max != exp.Max ||
			got.P50 != exp.P50 || got.P90 != exp.P90 || got.P99 != exp.P99 {
			t.Errorf("%s duration_ms = %+v, want %+v", view, got, exp)
		}
		if rel := math.Abs(got.Sum-exp.Sum) / exp.Sum; rel > 1e-12 {
			t.Errorf("%s sum = %g, want %g (rel diff %g)", view, got.Sum, exp.Sum, rel)
		}
		var n uint64
		for _, sc := range row.Statuses {
			n += sc.Count
		}
		if len(row.Statuses) != len(statuses) || n != row.Requests || row.Requests != 3000 {
			t.Errorf("%s statuses %v sum to %d, requests %d, want 3000", view, row.Statuses, n, row.Requests)
		}
	}
}

// TestObserveRepeatAllocs pins Observe on a repeat series (same key,
// status, counters and ring bucket) at the allocations of the
// counter-sum map TraceCounters builds, and nothing else: picking the
// exemplar band reads the row's one duration sketch, so nothing is
// merged per call. A map with entries costs two allocations (its header
// and its first slot group), so the bound is measured, not written down.
func TestObserveRepeatAllocs(t *testing.T) {
	e := New(Config{})
	statuses := []string{"200", "400", "404", "408", "429", "504"}
	for i := 0; i < 2000; i++ {
		e.Observe(mkTrace(fmt.Sprintf("w%d", i), "containment", "antichain", statuses[i%len(statuses)],
			testEpoch.Add(time.Duration(i)*time.Millisecond), float64(1+i%50),
			map[string]int64{"states_expanded": int64(i % 100)}))
	}
	tr := mkTrace("repeat", "containment", "antichain", "200", testEpoch.Add(2*time.Second), 7,
		map[string]int64{"states_expanded": 40})
	mapAllocs := testing.AllocsPerRun(1000, func() { _ = recorder.TraceCounters(tr.Root) })
	if allocs := testing.AllocsPerRun(1000, func() { e.Observe(tr) }); allocs > mapAllocs {
		t.Fatalf("Observe on a repeat series: %.1f allocs, want <= %.1f (the counter-sum map)", allocs, mapAllocs)
	}
}

// TestEngineReplayAgreement pins the core live/offline contract: feeding
// the same traces through a fresh engine (as `rwdtrace stats -trace-dir`
// does) and snapshotting at LastSeen reproduces the live engine's
// snapshot byte for byte.
func TestEngineReplayAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var traces []*recorder.Trace
	for i := 0; i < 500; i++ {
		status := "200"
		if i%17 == 0 {
			status = "429"
		}
		op := "containment"
		engine := "antichain"
		if i%5 == 0 {
			op, engine = "membership", ""
		}
		n := int64(rng.Intn(1000))
		traces = append(traces, mkTrace(fmt.Sprintf("t%04d", i), op, engine, status,
			testEpoch.Add(time.Duration(i)*73*time.Millisecond),
			1+float64(n)*0.01+rng.Float64(),
			map[string]int64{"states_expanded": n, "product_states": n / 2}))
	}
	live := New(Config{})
	for _, tr := range traces {
		live.Observe(tr)
	}
	replayed := Replay(traces)

	at := live.LastSeen()
	if !at.Equal(replayed.LastSeen()) {
		t.Fatalf("LastSeen: live %v != replayed %v", at, replayed.LastSeen())
	}
	a, err := json.Marshal(live.Snapshot(at, WindowAll, Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(replayed.Snapshot(at, WindowAll, Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("live and replayed snapshots differ:\nlive:     %s\nreplayed: %s", a, b)
	}
}

// TestSnapshotDeterministic: two marshals of the same state are
// byte-identical (sorted slices, struct field order).
func TestSnapshotDeterministic(t *testing.T) {
	e := New(Config{})
	for i := 0; i < 100; i++ {
		e.Observe(mkTrace(fmt.Sprintf("t%d", i), "analyze", "", "200",
			testEpoch.Add(time.Duration(i)*time.Millisecond), float64(1+i%7),
			map[string]int64{"docs": int64(i), "fields": int64(i * 2), "rounds": 3}))
	}
	at := e.LastSeen()
	a, _ := json.Marshal(e.Snapshot(at, WindowAll, Filter{}))
	b, _ := json.Marshal(e.Snapshot(at, WindowAll, Filter{}))
	if string(a) != string(b) {
		t.Fatal("repeated snapshots of identical state differ")
	}
}

func TestEngineErrorAndTimeoutRates(t *testing.T) {
	e := New(Config{})
	start := testEpoch
	for i := 0; i < 6; i++ {
		e.Observe(mkTrace(fmt.Sprintf("ok%d", i), "validate", "", "200", start, 5, nil))
	}
	for i := 0; i < 3; i++ {
		e.Observe(mkTrace(fmt.Sprintf("bad%d", i), "validate", "", "400", start, 1, nil))
	}
	e.Observe(mkTrace("to", "validate", "", "504", start, 100, nil))
	snap := e.Snapshot(e.LastSeen(), WindowLifetime, Filter{})
	if len(snap.Lifetime) != 1 {
		t.Fatalf("rows = %d, want 1", len(snap.Lifetime))
	}
	row := snap.Lifetime[0]
	if row.Requests != 10 || row.Errors != 4 || row.Timeouts != 1 {
		t.Fatalf("requests/errors/timeouts = %d/%d/%d, want 10/4/1", row.Requests, row.Errors, row.Timeouts)
	}
	if row.ErrorRate != 0.4 || row.TimeoutRate != 0.1 {
		t.Errorf("rates = %g/%g, want 0.4/0.1", row.ErrorRate, row.TimeoutRate)
	}
	if len(row.Statuses) != 3 {
		t.Errorf("status breakdown = %v, want 3 entries", row.Statuses)
	}
}

func TestEngineFilters(t *testing.T) {
	e := New(Config{})
	e.Observe(mkTrace("a", "containment", "antichain", "200", testEpoch, 5, nil))
	e.Observe(mkTrace("b", "membership", "", "200", testEpoch, 1, nil))

	snap := e.Snapshot(e.LastSeen(), WindowLifetime, Filter{Op: "containment"})
	if len(snap.Lifetime) != 1 || snap.Lifetime[0].Op != "containment" {
		t.Fatalf("op filter: %+v", snap.Lifetime)
	}
	snap = e.Snapshot(e.LastSeen(), WindowLifetime, Filter{Engine: "-"})
	if len(snap.Lifetime) != 1 || snap.Lifetime[0].Op != "membership" {
		t.Fatalf("engine '-' filter: %+v", snap.Lifetime)
	}
	snap = e.Snapshot(e.LastSeen(), WindowLifetime, Filter{Engine: "antichain"})
	if len(snap.Lifetime) != 1 || snap.Lifetime[0].Op != "containment" {
		t.Fatalf("engine filter: %+v", snap.Lifetime)
	}
}

func TestEngineExemplars(t *testing.T) {
	e := New(Config{})
	for i := 0; i < 200; i++ {
		durMS := float64(1 + i%10)
		if i == 150 {
			durMS = 1000 // a clear tail trace
		}
		e.Observe(mkTrace(fmt.Sprintf("t%d", i), "infer", "", "200",
			testEpoch.Add(time.Duration(i)*time.Millisecond), durMS, nil))
	}
	snap := e.Snapshot(e.LastSeen(), WindowLifetime, Filter{})
	if len(snap.Lifetime) != 1 {
		t.Fatal("want one row")
	}
	exs := snap.Lifetime[0].Exemplars
	if len(exs) == 0 {
		t.Fatal("no exemplars")
	}
	bands := map[string]Exemplar{}
	for _, x := range exs {
		bands[x.Band] = x
	}
	tail, ok := bands["ge_p99"]
	if !ok {
		t.Fatalf("no ge_p99 exemplar in %+v", exs)
	}
	if tail.TraceID != "t150" {
		t.Errorf("ge_p99 exemplar = %s (%.0fms), want t150", tail.TraceID, tail.DurationMS)
	}
	if _, ok := bands["le_p50"]; !ok {
		t.Errorf("no le_p50 exemplar in %+v", exs)
	}
	// Window rows carry no exemplars (bands are lifetime-relative).
	full := e.Snapshot(e.LastSeen(), WindowAll, Filter{})
	for _, row := range full.Window {
		if len(row.Exemplars) != 0 {
			t.Errorf("window row has exemplars: %+v", row.Exemplars)
		}
	}
}

func TestEngineConcurrentObserve(t *testing.T) {
	e := New(Config{})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				e.Observe(mkTrace(fmt.Sprintf("g%d-%d", g, i), "containment", "antichain", "200",
					testEpoch.Add(time.Duration(i)*time.Millisecond), float64(1+i%5),
					map[string]int64{"states_expanded": int64(i)}))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := e.Observed(); got != 1600 {
		t.Fatalf("observed = %d, want 1600", got)
	}
	snap := e.Snapshot(e.LastSeen(), WindowAll, Filter{})
	if snap.Lifetime[0].Requests != 1600 {
		t.Fatalf("requests = %d, want 1600", snap.Lifetime[0].Requests)
	}
}
