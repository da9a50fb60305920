package recorder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// mkTrace builds a minimal trace with controllable identity, size, and
// summary fields. Bytes is set explicitly so ring-budget tests don't
// depend on JSON encoding details.
func mkTrace(id string, durMS float64, bytes int64) *Trace {
	return &Trace{
		TraceID:    id,
		Op:         "containment",
		Status:     "200",
		Start:      time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		DurationMS: durMS,
		Bytes:      bytes,
		Root: &obs.Node{
			Name:       "http.containment",
			DurationMS: durMS,
			Counters:   map[string]int64{"states_expanded": int64(durMS)},
		},
	}
}

func checkInvariant(t *testing.T, r *Ring) {
	t.Helper()
	st := r.Stats()
	if st.Recorded != st.Retained+st.Evicted {
		t.Fatalf("accounting broken: recorded=%d != retained=%d + evicted=%d",
			st.Recorded, st.Retained, st.Evicted)
	}
}

func TestRingInvariants(t *testing.T) {
	r := New(Config{Capacity: 4, MaxBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		r.Record(mkTrace(fmt.Sprintf("t%02d", i), float64(i), 100))
		checkInvariant(t, r)
	}
	st := r.Stats()
	if st.Recorded != 10 || st.Retained != 4 || st.Evicted != 6 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want recorded=10 retained=4 evicted=6 dropped=0", st)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	// Oldest evicted first: the survivors are the last four recorded.
	for i, want := range []string{"t06", "t07", "t08", "t09"} {
		if snap[i].TraceID != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snap[i].TraceID, want)
		}
	}
}

func TestRingByteBudgetEvicts(t *testing.T) {
	r := New(Config{Capacity: 100, MaxBytes: 1000})
	for i := 0; i < 10; i++ {
		r.Record(mkTrace(fmt.Sprintf("t%02d", i), 1, 300))
		checkInvariant(t, r)
		if st := r.Stats(); st.Bytes > 1000 {
			t.Fatalf("bytes = %d exceeds budget 1000", st.Bytes)
		}
	}
	st := r.Stats()
	if st.Retained != 3 { // 3*300 = 900 <= 1000, 4*300 would burst
		t.Fatalf("retained = %d, want 3 (byte budget)", st.Retained)
	}
}

func TestRingOversizedTraceDropped(t *testing.T) {
	r := New(Config{Capacity: 10, MaxBytes: 500})
	r.Record(mkTrace("big", 1, 501))
	st := r.Stats()
	if st.Dropped != 1 || st.Recorded != 0 || st.Retained != 0 {
		t.Fatalf("stats = %+v, want dropped=1 and nothing recorded", st)
	}
	checkInvariant(t, r)
}

func TestRingConcurrentRecord(t *testing.T) {
	r := New(Config{Capacity: 32, MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(mkTrace(fmt.Sprintf("g%d-%d", g, i), 1, 64))
			}
		}(g)
	}
	wg.Wait()
	checkInvariant(t, r)
	st := r.Stats()
	if st.Recorded != 1600 {
		t.Fatalf("recorded = %d, want 1600", st.Recorded)
	}
	if st.Retained != 32 {
		t.Fatalf("retained = %d, want 32", st.Retained)
	}
}

func TestRingGetAndNilSafety(t *testing.T) {
	var nilRing *Ring
	nilRing.Record(mkTrace("x", 1, 10)) // must not panic
	if nilRing.Get("x") != nil || nilRing.Snapshot() != nil {
		t.Fatal("nil ring should return nothing")
	}
	if (nilRing.Stats() != Stats{}) {
		t.Fatal("nil ring stats should be zero")
	}

	r := New(Config{Capacity: 4})
	r.Record(mkTrace("a", 1, 10))
	r.Record(mkTrace("b", 2, 10))
	if got := r.Get("a"); got == nil || got.TraceID != "a" {
		t.Fatalf("Get(a) = %v", got)
	}
	if r.Get("missing") != nil {
		t.Fatal("Get(missing) should be nil")
	}
}

func TestFromSpanExportsTreeAndStatus(t *testing.T) {
	var captured *Trace
	tr := &obs.Tracer{OnFinish: func(s *obs.Span) {
		if s.Parent() == nil {
			captured = FromSpan(s)
		}
	}}
	ctx, root := tr.StartRoot(context.Background(), "http.containment")
	_, child := obs.StartSpan(ctx, "containment.decide")
	child.Count("states_expanded", 42)
	child.Finish()
	root.SetAttr(StatusAttr, "200")
	root.Finish()

	if captured == nil {
		t.Fatal("no trace captured")
	}
	if captured.Op != "containment" {
		t.Fatalf("op = %q, want containment (http. trimmed)", captured.Op)
	}
	if captured.Status != "200" {
		t.Fatalf("status = %q, want 200", captured.Status)
	}
	if captured.TraceID != root.TraceID() {
		t.Fatalf("trace id %q != span id %q", captured.TraceID, root.TraceID())
	}
	if captured.Bytes <= 0 {
		t.Fatalf("bytes = %d, want > 0", captured.Bytes)
	}
	if got := CounterSum(captured.Root, "states_expanded"); got != 42 {
		t.Fatalf("CounterSum = %d, want 42", got)
	}
	if captured.Root.StartUS == 0 {
		t.Fatal("root node missing start_us")
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(url.Values{
		"op": {"containment"}, "status": {"504"}, "min_ms": {"2.5"},
		"since": {"10m"}, "limit": {"7"}, "sort": {"slowest"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Query{Op: "containment", Status: "504", MinMS: 2.5,
		Since: 10 * time.Minute, Limit: 7, Sort: SortSlowest}
	if q != want {
		t.Fatalf("q = %+v, want %+v", q, want)
	}
	for _, bad := range []url.Values{
		{"min_ms": {"fast"}},
		{"since": {"yesterday"}},
		{"limit": {"many"}},
		{"sort": {"biggest"}},
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Fatalf("ParseQuery(%v) should fail", bad)
		}
	}
}

// TestQueryValuesRoundTrip checks that Values encodes what ParseQuery
// decodes, for each Query field alone and for all of them together. The
// zero query encodes to no parameters, since ParseQuery rejects limit=0.
func TestQueryValuesRoundTrip(t *testing.T) {
	for _, q := range []Query{
		{},
		{Op: "analyze"},
		{Status: "504"},
		{MinMS: 1e-9},
		{MinMS: 0.1 + 0.2},
		{Since: 90*time.Second + time.Nanosecond},
		{Limit: 7},
		{Limit: -1},
		{Sort: SortRecent},
		{Sort: SortSlowest},
		{Op: "containment", Status: "200", MinMS: 12345.678, Since: 1500 * time.Microsecond,
			Limit: 3, Sort: SortSlowest},
	} {
		got, err := ParseQuery(q.Values())
		if err != nil || got != q {
			t.Errorf("ParseQuery(%v) = %+v, %v; want %+v", q.Values(), got, err, q)
		}
	}
	if v := (Query{}).Values(); len(v) != 0 {
		t.Errorf("zero Query encodes to %v, want no parameters", v)
	}
}

// TestParseQueryStrict pins the rejection (not silent coercion) of
// parameters that cannot mean anything, with a message naming the
// offending parameter so the 400 body is actionable.
func TestParseQueryStrict(t *testing.T) {
	cases := []struct {
		name    string
		v       url.Values
		wantSub string
	}{
		{"negative min_ms", url.Values{"min_ms": {"-3"}}, "min_ms"},
		{"NaN min_ms", url.Values{"min_ms": {"NaN"}}, "min_ms"},
		{"Inf min_ms", url.Values{"min_ms": {"+Inf"}}, "min_ms"},
		{"garbage min_ms", url.Values{"min_ms": {"2.5ms"}}, "min_ms"},
		{"malformed since", url.Values{"since": {"2026-08-07T12:00:00Z"}}, "since"},
		{"negative since", url.Values{"since": {"-10m"}}, "since"},
		{"limit zero", url.Values{"limit": {"0"}}, "limit"},
		{"conflicting sorts", url.Values{"sort": {"recent", "slowest"}}, "sort"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseQuery(tc.v)
			if err == nil {
				t.Fatalf("ParseQuery(%v) should fail", tc.v)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name %q", err, tc.wantSub)
			}
		})
	}
	// Still-valid shapes that look close to the rejected ones.
	for _, good := range []url.Values{
		{"min_ms": {"0"}},
		{"limit": {"-1"}},                // explicit unlimited
		{"sort": {"slowest", "slowest"}}, // repeated but agreeing
	} {
		if _, err := ParseQuery(good); err != nil {
			t.Fatalf("ParseQuery(%v) = %v, want ok", good, err)
		}
	}
}

func TestQueryApply(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	ts := []*Trace{ // oldest first
		{TraceID: "a", Op: "containment", Status: "200", DurationMS: 5, Start: now.Add(-time.Hour)},
		{TraceID: "b", Op: "analyze", Status: "200", DurationMS: 50, Start: now.Add(-time.Minute)},
		{TraceID: "c", Op: "containment", Status: "504", DurationMS: 30, Start: now.Add(-30 * time.Second)},
		{TraceID: "d", Op: "containment", Status: "200", DurationMS: 1, Start: now.Add(-time.Second)},
	}
	ids := func(got []*Trace) string {
		var b []string
		for _, t := range got {
			b = append(b, t.TraceID)
		}
		return strings.Join(b, ",")
	}

	if got := ids(Query{Sort: SortRecent}.Apply(ts, now)); got != "d,c,b,a" {
		t.Fatalf("recent = %s, want d,c,b,a", got)
	}
	if got := ids(Query{Sort: SortSlowest}.Apply(ts, now)); got != "b,c,a,d" {
		t.Fatalf("slowest = %s, want b,c,a,d", got)
	}
	if got := ids(Query{Op: "containment", Sort: SortSlowest}.Apply(ts, now)); got != "c,a,d" {
		t.Fatalf("op filter = %s, want c,a,d", got)
	}
	if got := ids(Query{Status: "504"}.Apply(ts, now)); got != "c" {
		t.Fatalf("status filter = %s, want c", got)
	}
	if got := ids(Query{MinMS: 20}.Apply(ts, now)); got != "c,b" {
		t.Fatalf("min_ms filter = %s, want c,b", got)
	}
	if got := ids(Query{Since: 2 * time.Minute}.Apply(ts, now)); got != "d,c,b" {
		t.Fatalf("since filter = %s, want d,c,b", got)
	}
	if got := ids(Query{Limit: 2, Sort: SortSlowest}.Apply(ts, now)); got != "b,c" {
		t.Fatalf("limit = %s, want b,c", got)
	}
}

func TestLogRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	// Tiny files: every trace is bigger than MaxFileBytes, so each
	// Append after the first rotates; only 3 files survive pruning.
	l, err := OpenLog(dir, LogConfig{MaxFileBytes: 1, MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(mkTrace(fmt.Sprintf("t%02d", i), 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := logFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("log files = %v, want 3 after pruning", names)
	}
	traces, discarded, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 0 {
		t.Fatalf("discarded = %d, want 0", discarded)
	}
	// The survivors are a contiguous newest suffix, oldest first.
	if len(traces) == 0 || traces[len(traces)-1].TraceID != "t09" {
		t.Fatalf("last trace = %v, want t09", traces)
	}
}

func TestLogResumesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkTrace("first", 1, 0)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen (a restarted server) and append more; both must be read.
	l2, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(mkTrace("second", 2, 0)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	traces, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].TraceID != "first" || traces[1].TraceID != "second" {
		t.Fatalf("traces = %v, want [first second]", traces)
	}
}

func TestReadDirToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(mkTrace(fmt.Sprintf("t%d", i), 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-write: append half a JSON object.
	names, err := logFiles(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("logFiles: %v %v", names, err)
	}
	path := filepath.Join(dir, names[len(names)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"trace_id":"torn","op":"contai`)
	f.Close()

	traces, discarded, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 1 {
		t.Fatalf("discarded = %d, want 1 (the torn line)", discarded)
	}
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3 intact", len(traces))
	}
}

func TestReadDirEmptyDirErrors(t *testing.T) {
	if _, _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("ReadDir on a dir with no log files should error")
	}
}

func TestRingAppendsToLog(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Capacity: 2, Log: l})
	for i := 0; i < 5; i++ {
		r.Record(mkTrace(fmt.Sprintf("t%d", i), 1, 10))
	}
	l.Close()
	traces, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The log keeps everything recorded, even traces the ring evicted.
	if len(traces) != 5 {
		t.Fatalf("log has %d traces, want all 5 (ring retained only 2)", len(traces))
	}
}

func TestWritePerfettoValidJSON(t *testing.T) {
	traces := []*Trace{
		{
			TraceID: "abc", Op: "containment", Status: "200", DurationMS: 3,
			Root: &obs.Node{
				Name: "http.containment", DurationMS: 3, StartUS: 1_754_500_000_000_000,
				Counters: map[string]int64{"states_expanded": 7},
				Children: []*obs.Node{{
					Name: "containment.decide", DurationMS: 2, StartUS: 1_754_500_000_000_100,
					Attrs: map[string]string{"kind": "regex"},
				}},
			},
		},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var metas, spans int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			spans++
			if e.Ts == 0 || e.Dur <= 0 {
				t.Fatalf("span event %q has ts=%d dur=%d", e.Name, e.Ts, e.Dur)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if metas != 1 || spans != 2 {
		t.Fatalf("events: %d meta, %d spans; want 1 and 2", metas, spans)
	}
}

// BenchmarkRecord measures the per-trace cost of admitting an exported
// tree into the ring — the hot-path overhead the recorder adds to every
// request's Finish.
func BenchmarkRecord(b *testing.B) {
	r := New(Config{Capacity: 1024})
	tr := mkTrace("bench", 1, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(tr)
	}
}
