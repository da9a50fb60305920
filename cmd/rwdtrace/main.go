// Command rwdtrace queries the trace flight recorder: the retained
// span trees (with their algorithmic cost counters — states expanded,
// product states, fixpoint rounds) that rwdserve records for every
// finished request.
//
// It works against either a live server's /v1/traces API or, after a
// restart or crash, the on-disk NDJSON trace log a server wrote with
// -trace-dir:
//
//	rwdtrace tail   [-url http://127.0.0.1:8080 | -trace-dir DIR] [-n 20] [-op containment] [-status 504] [-min-ms 10]
//	rwdtrace top    [-url ... | -trace-dir ...] [-by duration|states_expanded|<counter>] [-n 10]
//	rwdtrace show   [-url ... | -trace-dir ...] <trace-id>
//	rwdtrace export -perfetto [-url ... | -trace-dir ...] [-o traces.perfetto.json]
//	rwdtrace stats  [-url ... | -trace-dir ...] [-window live|lifetime|all] [-op OP] [-engine E] [-json]
//
// tail prints the most recent traces one line each; top ranks them by
// duration or by a cost counter summed over the whole tree; show dumps
// one tree (the id is what a /v1/* response returned in X-Trace-Id);
// export -perfetto writes Chrome trace-event JSON loadable directly in
// Perfetto or chrome://tracing.
//
// stats reads the workload-profile engine: against a live server it
// calls GET /v1/stats; against a -trace-dir it replays the NDJSON
// history through the same engine the server runs, so on-disk history
// and live windows agree by construction. To find slow requests, rank
// traces with top -by duration or follow the ge_p99 exemplars stats
// lists.
//
// Exit codes: 0 ok, 1 operational error, 2 usage error, 3 trace not
// found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/obs/recorder"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: rwdtrace <command> [flags]

commands:
  tail    print recent traces, one line each
  top     rank traces by duration or a cost counter
  show    dump one trace tree by id
  export  write the selected traces in an export format
  stats   per-op workload profiles: counts, error rates, quantiles, exemplars

common flags (every command):
  -url URL          query a live rwdserve (default http://127.0.0.1:8080
                    when -trace-dir is not given)
  -trace-dir DIR    read the on-disk NDJSON trace log instead of a server

run 'rwdtrace <command> -h' for the command's flags
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tail":
		err = cmdTail(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rwdtrace: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwdtrace:", err)
		switch err.(type) {
		case notFoundError:
			os.Exit(3)
		case usageError:
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type notFoundError string

func (e notFoundError) Error() string { return string(e) }

// usageError exits 2: the invocation cannot mean anything (e.g. top -by
// with a counter name no trace has ever carried).
type usageError string

func (e usageError) Error() string { return string(e) }

// source abstracts the two trace origins: a live server's query API or
// an on-disk -trace-dir written by a previous (possibly crashed) server.
type source struct {
	url string // mutually exclusive with dir
	dir string
}

// sourceFlags registers the shared -url/-trace-dir flags on fs.
func sourceFlags(fs *flag.FlagSet) *source {
	s := &source{}
	fs.StringVar(&s.url, "url", "", "base URL of a running rwdserve (default http://127.0.0.1:8080)")
	fs.StringVar(&s.dir, "trace-dir", "", "read the on-disk NDJSON trace log in this directory instead of a server")
	return s
}

func (s *source) resolve() error {
	if s.url != "" && s.dir != "" {
		return fmt.Errorf("-url and -trace-dir are mutually exclusive")
	}
	if s.url == "" && s.dir == "" {
		s.url = "http://127.0.0.1:8080"
	}
	return nil
}

// load fetches traces matching q, oldest first from a directory, query
// order from a server (the server applies q; dir mode applies it here).
func (s *source) load(q recorder.Query) ([]*recorder.Trace, error) {
	if s.dir != "" {
		traces, discarded, err := recorder.ReadDir(s.dir)
		if err != nil {
			return nil, err
		}
		if discarded > 0 {
			fmt.Fprintf(os.Stderr, "rwdtrace: %d torn/damaged log line(s) skipped\n", discarded)
		}
		return q.Apply(traces, time.Now()), nil
	}
	v := url.Values{}
	if q.Op != "" {
		v.Set("op", q.Op)
	}
	if q.Status != "" {
		v.Set("status", q.Status)
	}
	if q.MinMS > 0 {
		v.Set("min_ms", fmt.Sprintf("%g", q.MinMS))
	}
	if q.Since > 0 {
		v.Set("since", q.Since.String())
	}
	v.Set("limit", fmt.Sprintf("%d", q.Limit))
	if q.Sort != "" {
		v.Set("sort", q.Sort)
	}
	resp, err := http.Get(s.url + "/v1/traces?" + v.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET /v1/traces: status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var out struct {
		Traces []*recorder.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	src := sourceFlags(fs)
	n := fs.Int("n", 20, "number of traces to print")
	op := fs.String("op", "", "filter: trace op (containment, analyze, ...)")
	status := fs.String("status", "", "filter: HTTP status code (200, 504, ...)")
	minMS := fs.Float64("min-ms", 0, "filter: minimum duration in milliseconds")
	since := fs.Duration("since", 0, "filter: only traces started within this window (e.g. 10m)")
	fs.Parse(args)
	if err := src.resolve(); err != nil {
		return err
	}
	traces, err := src.load(recorder.Query{
		Op: *op, Status: *status, MinMS: *minMS, Since: *since,
		Limit: *n, Sort: recorder.SortRecent,
	})
	if err != nil {
		return err
	}
	printTraceLines(traces)
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	src := sourceFlags(fs)
	n := fs.Int("n", 10, "number of traces to print")
	by := fs.String("by", "duration", "ranking key: duration, or a cost counter name summed over the tree (states_expanded, product_states, ...)")
	op := fs.String("op", "", "filter: trace op")
	status := fs.String("status", "", "filter: HTTP status code")
	fs.Parse(args)
	if err := src.resolve(); err != nil {
		return err
	}
	// Fetch every matching trace and rank client-side so -by works for
	// any counter, not only the server's sort keys; the server's trace
	// byte budget bounds the reply.
	traces, err := src.load(recorder.Query{Op: *op, Status: *status, Limit: -1, Sort: recorder.SortSlowest})
	if err != nil {
		return err
	}
	if *by != "duration" {
		if err := checkCounterKnown(traces, *by); err != nil {
			return err
		}
		sort.SliceStable(traces, func(i, j int) bool {
			return recorder.CounterSum(traces[i].Root, *by) > recorder.CounterSum(traces[j].Root, *by)
		})
	}
	if len(traces) > *n {
		traces = traces[:*n]
	}
	if *by != "duration" {
		for _, t := range traces {
			fmt.Printf("%-16s %-18s %6s %10.2fms  %s=%d\n",
				t.TraceID, t.Op, t.Status, t.DurationMS, *by, recorder.CounterSum(t.Root, *by))
		}
		return nil
	}
	printTraceLines(traces)
	return nil
}

// checkCounterKnown returns a usageError when no loaded trace carries a
// counter named by — ranking by it would silently produce an arbitrary
// order. The error lists every counter the traces do carry so the user
// can correct the flag without guessing.
func checkCounterKnown(traces []*recorder.Trace, by string) error {
	if len(traces) == 0 {
		return nil // nothing to rank either way
	}
	seen := map[string]bool{}
	for _, t := range traces {
		for name := range recorder.TraceCounters(t.Root) {
			seen[name] = true
		}
	}
	if seen[by] {
		return nil
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	observed := "none"
	if len(names) > 0 {
		observed = strings.Join(names, ", ")
	}
	return usageError(fmt.Sprintf("top: unknown counter %q; observed counters: %s", by, observed))
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	src := sourceFlags(fs)
	fs.Parse(args)
	if err := src.resolve(); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rwdtrace show [flags] <trace-id>")
	}
	id := fs.Arg(0)

	var t *recorder.Trace
	if src.dir != "" {
		traces, _, err := recorder.ReadDir(src.dir)
		if err != nil {
			return err
		}
		for i := len(traces) - 1; i >= 0; i-- {
			if traces[i].TraceID == id {
				t = traces[i]
				break
			}
		}
	} else {
		resp, err := http.Get(src.url + "/v1/traces/" + url.PathEscape(id))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			t = &recorder.Trace{}
			if err := json.NewDecoder(resp.Body).Decode(t); err != nil {
				return err
			}
		case http.StatusNotFound:
			// fall through to the shared not-found error below
		default:
			raw, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("GET /v1/traces/%s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(string(raw)))
		}
	}
	if t == nil {
		return notFoundError(fmt.Sprintf("trace %q not found (evicted, or never recorded)", id))
	}
	fmt.Printf("trace %s  op=%s status=%s start=%s dur=%.2fms\n",
		t.TraceID, t.Op, t.Status, t.Start.Format(time.RFC3339Nano), t.DurationMS)
	return obs.WriteTree(os.Stdout, t.Root)
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	src := sourceFlags(fs)
	perfetto := fs.Bool("perfetto", false, "write Chrome trace-event JSON (Perfetto / chrome://tracing)")
	out := fs.String("o", "", "output file; empty writes stdout")
	n := fs.Int("n", 200, "number of most recent traces to export")
	op := fs.String("op", "", "filter: trace op")
	fs.Parse(args)
	if err := src.resolve(); err != nil {
		return err
	}
	if !*perfetto {
		return fmt.Errorf("export: pick a format (-perfetto)")
	}
	traces, err := src.load(recorder.Query{Op: *op, Limit: *n, Sort: recorder.SortRecent})
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := recorder.WritePerfetto(w, traces); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "rwdtrace: %d trace(s) -> %s\n", len(traces), *out)
	}
	return nil
}

// fetchSnapshot obtains a workload-profile snapshot. Against a live
// server it calls GET /v1/stats; against a -trace-dir it replays the
// NDJSON history through the same engine (default server configuration:
// 60s window in 10 buckets), snapshotted at the newest trace's end so
// the live window reflects the tail of the log rather than wall clock.
func fetchSnapshot(src *source, window, op, engine string) (*profile.Snapshot, error) {
	if src.dir != "" {
		traces, discarded, err := recorder.ReadDir(src.dir)
		if err != nil {
			return nil, err
		}
		if discarded > 0 {
			fmt.Fprintf(os.Stderr, "rwdtrace: %d torn/damaged log line(s) skipped\n", discarded)
		}
		eng := profile.Replay(traces, profile.Config{})
		return eng.Snapshot(eng.LastSeen(), window, profile.Filter{Op: op, Engine: engine}), nil
	}
	v := url.Values{}
	if window != "" {
		v.Set("window", window)
	}
	if op != "" {
		v.Set("op", op)
	}
	if engine != "" {
		v.Set("engine", engine)
	}
	resp, err := http.Get(src.url + "/v1/stats?" + v.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET /v1/stats: status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	snap := &profile.Snapshot{}
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return nil, err
	}
	return snap, nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	src := sourceFlags(fs)
	window := fs.String("window", profile.WindowAll, "live, lifetime, or all")
	op := fs.String("op", "", "filter: trace op")
	engine := fs.String("engine", "", `filter: engine label ("-" selects profiles where no engine ran)`)
	asJSON := fs.Bool("json", false, "emit the raw snapshot JSON instead of tables")
	fs.Parse(args)
	if err := src.resolve(); err != nil {
		return err
	}
	switch *window {
	case profile.WindowLive, profile.WindowLifetime, profile.WindowAll:
	default:
		return usageError(fmt.Sprintf("stats: -window %q (want %s, %s, or %s)",
			*window, profile.WindowLive, profile.WindowLifetime, profile.WindowAll))
	}
	snap, err := fetchSnapshot(src, *window, *op, *engine)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	fmt.Printf("observed %d trace(s); window %.0fs; sketch rel. error %.2f%%\n",
		snap.Observed, snap.WindowSeconds, 100*snap.SketchRelError)
	if len(snap.Window) > 0 {
		fmt.Printf("\nlive window (last %.0fs):\n", snap.WindowSeconds)
		printProfileTable(snap.Window)
	}
	if len(snap.Lifetime) > 0 {
		fmt.Printf("\nlifetime:\n")
		printProfileTable(snap.Lifetime)
		for _, row := range snap.Lifetime {
			for _, ex := range row.Exemplars {
				fmt.Printf("  exemplar %-14s %-10s %-7s %-16s %9.2fms\n",
					row.Op, engineLabel(row.Engine), ex.Band, ex.TraceID, ex.DurationMS)
			}
		}
	}
	return nil
}

// printProfileTable renders per-(op, engine) profile rows.
func printProfileTable(rows []profile.OpProfile) {
	fmt.Printf("  %-14s %-10s %8s %6s %6s %9s %9s %9s %9s\n",
		"OP", "ENGINE", "REQS", "ERR%", "TO%", "P50MS", "P90MS", "P99MS", "MAXMS")
	for _, r := range rows {
		fmt.Printf("  %-14s %-10s %8d %5.1f%% %5.1f%% %9.2f %9.2f %9.2f %9.2f\n",
			r.Op, engineLabel(r.Engine), r.Requests,
			100*r.ErrorRate, 100*r.TimeoutRate,
			r.DurationMS.P50, r.DurationMS.P90, r.DurationMS.P99, r.DurationMS.Max)
	}
}

// engineLabel renders the empty engine (no engine span ran: cache hits,
// rejected requests) the same way the engine=- filter selects it.
func engineLabel(engine string) string {
	if engine == "" {
		return "-"
	}
	return engine
}

// printTraceLines renders traces one per line: id, op, status,
// duration, start, and the headline cost counters of the tree.
func printTraceLines(traces []*recorder.Trace) {
	for _, t := range traces {
		sums := recorder.TraceCounters(t.Root)
		var counters []string
		for _, name := range headlineCounters(sums) {
			counters = append(counters, fmt.Sprintf("%s=%d", name, sums[name]))
		}
		fmt.Printf("%-16s %-18s %6s %10.2fms  %s  %s\n",
			t.TraceID, t.Op, t.Status, t.DurationMS,
			t.Start.Format("15:04:05.000"), strings.Join(counters, " "))
	}
}

// headlineCounters picks up to three of a trace's counter names,
// preferring the algorithmic cost measures the paper is about.
func headlineCounters(sums map[string]int64) []string {
	preferred := []string{"states_expanded", "product_states", "antichain_pruned",
		"fixpoint_rounds", "queries_ingested"}
	var out []string
	for _, p := range preferred {
		if _, ok := sums[p]; ok {
			out = append(out, p)
		}
	}
	rest := make([]string, 0, len(sums))
	for name := range sums {
		if !slices.Contains(preferred, name) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	out = append(out, rest...)
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}
