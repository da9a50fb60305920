package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/profile"
	"repro/internal/obs/recorder"
)

func getStats(t *testing.T, base, query string) *profile.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/stats%s = %d: %s", query, resp.StatusCode, raw)
	}
	var snap profile.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats response is not valid JSON: %v\n%s", err, raw)
	}
	return &snap
}

func findRow(rows []profile.OpProfile, op, engine string) *profile.OpProfile {
	for i := range rows {
		if rows[i].Op == op && rows[i].Engine == engine {
			return &rows[i]
		}
	}
	return nil
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 20; i++ {
		// Growing pads vary automaton size, so the cost counters take
		// several distinct values.
		pad := strings.Repeat("(a|b) ", i%5+1)
		if code := post(t, ts.URL, "/v1/containment",
			fmt.Sprintf(`{"engine":"regex","left":"(a|b)* %sx","right":"(a|b)* (a|b) %sx"}`, pad, pad), nil); code != 200 {
			t.Fatalf("containment request %d = %d", i, code)
		}
	}
	post(t, ts.URL, "/v1/membership", `{"expr":"a","word":["a"]}`, nil)
	post(t, ts.URL, "/v1/containment", `{not json`, nil) // a 400 to profile

	snap := getStats(t, ts.URL, "")
	if snap.SchemaVersion != profile.SnapshotSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", snap.SchemaVersion, profile.SnapshotSchemaVersion)
	}
	if snap.SketchRelError <= 0 || snap.SketchRelError > 0.05 {
		t.Fatalf("sketch_rel_error = %g, want the documented ~0.022 bound", snap.SketchRelError)
	}
	if snap.Observed < 22 {
		t.Fatalf("observed = %d, want >= 22", snap.Observed)
	}

	row := findRow(snap.Lifetime, "containment", "antichain")
	if row == nil {
		t.Fatalf("no containment/antichain row in lifetime: %+v", snap.Lifetime)
	}
	if row.Requests != 20 {
		t.Fatalf("containment requests = %d, want 20", row.Requests)
	}
	d := row.DurationMS
	if !(d.P50 <= d.P90 && d.P90 <= d.P99) {
		t.Fatalf("quantiles out of order: p50=%g p90=%g p99=%g", d.P50, d.P90, d.P99)
	}
	if d.P50 <= 0 || d.Max < d.P99 || d.Min > d.P50 {
		t.Fatalf("implausible duration stats: %+v", d)
	}
	if len(row.Counters) == 0 {
		t.Fatal("containment row has no cost-counter distributions")
	}
	var sawStates bool
	for _, c := range row.Counters {
		if c.Name == "states_expanded" && c.Sum > 0 {
			sawStates = true
		}
	}
	if !sawStates {
		t.Fatalf("no states_expanded counter distribution: %+v", row.Counters)
	}

	// The 400 landed in its own (op, engine="") series with error rate 1.
	errRow := findRow(snap.Lifetime, "containment", "")
	if errRow == nil || errRow.Errors == 0 || errRow.ErrorRate != 1 {
		t.Fatalf("malformed request not profiled as an error row: %+v", errRow)
	}

	// Exemplars resolve against the flight recorder.
	if len(row.Exemplars) == 0 {
		t.Fatal("containment row has no exemplars")
	}
	for _, ex := range row.Exemplars {
		resp, err := http.Get(ts.URL + "/v1/traces/" + ex.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("exemplar %s (%s) does not resolve: %d", ex.TraceID, ex.Band, resp.StatusCode)
		}
	}

	// The live window: all the traffic just happened, so it matches
	// lifetime counts.
	wrow := findRow(snap.Window, "containment", "antichain")
	if wrow == nil || wrow.Requests != 20 {
		t.Fatalf("window containment row = %+v, want 20 requests", wrow)
	}

	// Filters.
	onlyMembership := getStats(t, ts.URL, "?window=lifetime&op=membership")
	if len(onlyMembership.Lifetime) != 1 || onlyMembership.Lifetime[0].Op != "membership" {
		t.Fatalf("op filter: %+v", onlyMembership.Lifetime)
	}
	if len(onlyMembership.Window) != 0 {
		t.Fatal("window=lifetime must omit the live window block")
	}
	noEngine := getStats(t, ts.URL, "?window=lifetime&engine=-")
	for _, r := range noEngine.Lifetime {
		if r.Engine != "" {
			t.Fatalf("engine=- returned a row with engine %q", r.Engine)
		}
	}

	// The snapshot serves only what it measures: no fitted cost models
	// and no anomaly flags.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&keys)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"models", "anomalies", "anomalies_total"} {
		if _, ok := keys[gone]; ok {
			t.Errorf("snapshot has a %q key", gone)
		}
	}

	// Reading /v1/stats must not profile itself.
	before := snap.Observed
	for i := 0; i < 5; i++ {
		getStats(t, ts.URL, "")
	}
	if after := getStats(t, ts.URL, "").Observed; after != before {
		t.Fatalf("observed grew %d -> %d from reading /v1/stats — the profile is polluting itself", before, after)
	}

	// Bad parameters are 400s, including conflicting repeats; a repeat
	// of one value is not a conflict.
	for query, want := range map[string]int{
		"window=hourly":               400,
		"window=live&window=hourly":   400,
		"window=live&window=lifetime": 400,
		"window=live&window=live":     200,
	} {
		resp, err := http.Get(ts.URL + "/v1/stats?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", query, resp.StatusCode, want)
		}
	}
}

// TestStatsQuantilesMatchOffline is the acceptance check of the sketch
// in situ: the /v1/stats lifetime quantiles must agree with exact
// nearest-rank quantiles computed offline from the same -trace-dir
// NDJSON within the documented rank-error bound, and an offline replay
// through profile.Replay must reproduce the live engine's snapshot
// byte for byte.
func TestStatsQuantilesMatchOffline(t *testing.T) {
	dir := t.TempDir()
	lg, err := recorder.OpenLog(dir, recorder.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{TraceLog: lg, CacheSize: -1})
	for i := 0; i < 120; i++ {
		if code := post(t, ts.URL, "/v1/containment",
			fmt.Sprintf(`{"engine":"regex","left":"(a|b)* x%d","right":"(a|b)* (a|b) x%d"}`, i%12, i%12), nil); code != 200 {
			t.Fatalf("containment request %d = %d", i, code)
		}
	}
	snap := getStats(t, ts.URL, "?window=lifetime")
	ts.Close()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	traces, discarded, err := recorder.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 0 || len(traces) != 120 {
		t.Fatalf("on-disk history: %d traces, %d discarded; want 120, 0", len(traces), discarded)
	}

	// Exact quantiles per (op, engine) from the raw NDJSON durations.
	var durs []float64
	for _, tr := range traces {
		if tr.Op == "containment" && recorder.TraceEngine(tr) == "antichain" {
			durs = append(durs, tr.DurationMS)
		}
	}
	if len(durs) != 120 {
		t.Fatalf("history has %d containment/antichain traces, want 120", len(durs))
	}
	sort.Float64s(durs)
	exact := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(durs))))
		if rank < 1 {
			rank = 1
		}
		return durs[rank-1]
	}
	row := findRow(snap.Lifetime, "containment", "antichain")
	if row == nil {
		t.Fatal("no containment/antichain row")
	}
	for _, c := range []struct {
		name        string
		got, wantEx float64
	}{
		{"p50", row.DurationMS.P50, exact(0.50)},
		{"p90", row.DurationMS.P90, exact(0.90)},
		{"p99", row.DurationMS.P99, exact(0.99)},
	} {
		relErr := math.Abs(c.got-c.wantEx) / c.wantEx
		if relErr > snap.SketchRelError {
			t.Errorf("%s: live %g vs offline exact %g, rel err %.4f > documented bound %.4f",
				c.name, c.got, c.wantEx, relErr, snap.SketchRelError)
		}
	}

	// Replay the NDJSON through a fresh engine (what `rwdtrace stats
	// -trace-dir` does) and compare snapshots at the same instant.
	replayed := profile.Replay(traces)
	at := s.Profile().LastSeen()
	if !at.Equal(replayed.LastSeen()) {
		t.Fatalf("LastSeen: live %v != replayed %v", at, replayed.LastSeen())
	}
	liveJSON, _ := json.Marshal(s.Profile().Snapshot(at, profile.WindowAll, profile.Filter{}))
	replayJSON, _ := json.Marshal(replayed.Snapshot(at, profile.WindowAll, profile.Filter{}))
	if string(liveJSON) != string(replayJSON) {
		t.Fatalf("offline replay disagrees with live engine:\nlive:   %s\nreplay: %s", liveJSON, replayJSON)
	}
}

func TestStatsMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, "/v1/containment", `{"engine":"regex","left":"a","right":"a*"}`, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		`rwd_op_duration_seconds_bucket{op="containment",status="200",le="0.005"}`,
		"rwd_op_duration_seconds_sum",
		"rwd_op_duration_seconds_count",
		"rwd_profile_observed_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	for _, gone := range []string{
		"rwd_profile_anomalies_total",
		"rwd_regex_derivative_steps_total",
		"rwd_regex_similarity_dedup_hits_total",
	} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics exports the retired family %s", gone)
		}
	}
}

func TestHealthzJSONAndText(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, "/v1/containment", `{"engine":"regex","left":"a","right":"a*"}`, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h struct {
		Status        string  `json:"status"`
		GoVersion     string  `json:"go_version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Recorder      struct {
			Enabled  bool  `json:"enabled"`
			Retained int64 `json:"retained"`
		} `json:"recorder"`
		Profile struct {
			Observed int64 `json:"observed"`
		} `json:"profile"`
		StoreAttached bool `json:"store_attached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if h.Status != "ok" || h.GoVersion == "" || h.UptimeSeconds < 0 {
		t.Fatalf("healthz body = %+v", h)
	}
	if !h.Recorder.Enabled || h.Recorder.Retained == 0 {
		t.Fatalf("recorder block = %+v, want enabled with 1 retained", h.Recorder)
	}
	if h.Profile.Observed == 0 {
		t.Fatalf("profile block = %+v, want observed > 0", h.Profile)
	}
	if h.StoreAttached {
		t.Fatal("store_attached = true with no store")
	}

	// format=text keeps the plain body for load balancers.
	textResp, err := http.Get(ts.URL + "/healthz?format=text")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(textResp.Body)
	textResp.Body.Close()
	if textResp.StatusCode != 200 || string(raw) != "ok\n" {
		t.Fatalf("healthz?format=text = %d %q, want 200 \"ok\\n\"", textResp.StatusCode, raw)
	}
}

// TestProfileOverheadUnderFivePercent pins the profile engine's hot-path
// cost the same way the recorder's own gate does: folding a finished
// trace into the engine must cost less than 5% of serving the request
// end to end over the HTTP stack.
func TestProfileOverheadUnderFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s, ts := newTestServer(t, Config{})
	const reqN = 200
	body := `{"engine":"regex","left":"(a|b)*abb","right":"(a|b)*"}`
	for i := 0; i < 10; i++ {
		post(t, ts.URL, "/v1/containment", fmt.Sprintf(`{"engine":"regex","left":"a{%d}","right":"a*"}`, i+1), nil)
	}
	reqStart := time.Now()
	for i := 0; i < reqN; i++ {
		if code := post(t, ts.URL, "/v1/containment", body, nil); code != 200 {
			t.Fatalf("code = %d", code)
		}
	}
	perRequest := time.Since(reqStart) / reqN

	snap := s.flight.Snapshot()
	if len(snap) == 0 {
		t.Fatal("nothing recorded")
	}
	sample := snap[len(snap)-1]
	eng := profile.New(profile.Config{})
	const obsN = 20000
	obsStart := time.Now()
	for i := 0; i < obsN; i++ {
		eng.Observe(sample)
	}
	perObserve := time.Since(obsStart) / obsN

	if perObserve*20 > perRequest {
		t.Fatalf("profile overhead %v per trace is not <5%% of %v per request", perObserve, perRequest)
	}
	t.Logf("per-request %v, per-observe %v (%.3f%%)", perRequest, perObserve,
		100*float64(perObserve)/float64(perRequest))
}
