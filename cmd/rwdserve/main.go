// Command rwdserve serves the repository's decision procedures and the
// SHARQL-style analysis pipeline over HTTP: containment (regex, k-ORE,
// DTD, JSON Schema), membership, DTD/EDTD validation, schema inference,
// and batch SPARQL log analysis, hardened for untrusted traffic with
// per-request deadlines, admission control, request-size caps, a
// verdict cache, a compile cache, and Prometheus-style metrics.
//
// Usage:
//
//	rwdserve -addr :8080 -max-inflight 16 -cache-size 4096 \
//	         -default-deadline 2s -max-deadline 30s
//
// Endpoints: POST /v1/containment /v1/membership /v1/validate /v1/infer
// /v1/analyze /v1/batch /v1/corpora; GET /v1/corpora /v1/traces
// /v1/traces/{id} /v1/stats /healthz /metrics.
// With -store-dir the server opens (or creates) a persistent corpus
// store there: POST /v1/corpora ingests triples or query logs, and
// /v1/analyze accepts "corpus": "<name>" to analyze committed data
// instead of inline queries. See the README "Service API" and
// "Persistent store" sections for request shapes and curl examples.
//
// Every finished request's span tree lands in the always-on flight
// recorder (bounded ring, -trace-capacity / -trace-max-bytes) behind
// GET /v1/traces; with -trace-dir the traces are also appended to a
// size-rotated NDJSON log that survives restarts and is readable with
// the rwdtrace CLI. Every /v1/* response carries an X-Trace-Id header
// naming its recorded trace. See the README "Trace history" section.
//
// SIGTERM or SIGINT starts a graceful drain: the listener closes, in-
// flight requests finish (bounded by -drain-timeout), then the process
// exits 0.
//
// -debug-addr starts a second, private HTTP server exposing
// net/http/pprof (heap, CPU, goroutine profiles). It is off by default
// and should never be bound to a public interface.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs/recorder"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInflight := flag.Int("max-inflight", 2*runtime.GOMAXPROCS(0),
		"admission-control bound on concurrently served requests")
	maxBody := flag.Int64("max-body-bytes", 8<<20, "request body size cap in bytes")
	defaultDeadline := flag.Duration("default-deadline", 2*time.Second,
		"deadline for requests without deadline_ms")
	maxDeadline := flag.Duration("max-deadline", 30*time.Second,
		"upper clamp on client-requested deadlines")
	cacheSize := flag.Int("cache-size", 1024,
		"capacity in entries of the verdict cache and of the compile cache (negative disables both)")
	analyzeWorkers := flag.Int("analyze-workers", 0, "worker pool bound for /v1/analyze; 0 = one per CPU")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second,
		"how long a graceful shutdown waits for in-flight requests")
	debugAddr := flag.String("debug-addr", "",
		"optional private address for the pprof debug server (e.g. localhost:6060); empty disables")
	storeDir := flag.String("store-dir", "",
		"directory of the persistent corpus store (created if missing); empty disables /v1/corpora and corpus-backed /v1/analyze")
	traceCapacity := flag.Int("trace-capacity", 1024,
		"flight-recorder ring capacity in traces (GET /v1/traces); negative disables the recorder")
	traceMaxBytes := flag.Int64("trace-max-bytes", 32<<20,
		"flight-recorder ring byte budget")
	traceDir := flag.String("trace-dir", "",
		"directory for the on-disk NDJSON trace log (created if missing, size-rotated; readable with rwdtrace -trace-dir); empty keeps traces in memory only")
	traceFileBytes := flag.Int64("trace-file-bytes", 8<<20,
		"size at which the -trace-dir log rotates to a new file")
	traceMaxFiles := flag.Int("trace-max-files", 8,
		"rotated -trace-dir files kept before the oldest is pruned")
	flag.Parse()

	var traceLog *recorder.Log
	if *traceDir != "" && *traceCapacity >= 0 {
		var err error
		traceLog, err = recorder.OpenLog(*traceDir, recorder.LogConfig{
			MaxFileBytes: *traceFileBytes,
			MaxFiles:     *traceMaxFiles,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rwdserve: opening trace log:", err)
			os.Exit(1)
		}
		defer traceLog.Close()
		fmt.Fprintf(os.Stderr, "rwdserve trace log at %s\n", *traceDir)
	}

	srv := service.New(service.Config{
		MaxInFlight:     *maxInflight,
		MaxBodyBytes:    *maxBody,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		CacheSize:       *cacheSize,
		AnalyzeWorkers:  *analyzeWorkers,
		TraceCapacity:   *traceCapacity,
		TraceMaxBytes:   *traceMaxBytes,
		TraceLog:        traceLog,
	})

	if *storeDir != "" {
		// Open under a root span so the open/recovery work (segments
		// validated, torn temp files discarded) is itself the first
		// trace in the flight recorder.
		ctx, root := srv.Tracer().StartRoot(context.Background(), "rwdserve.startup")
		st, err := store.OpenCtx(ctx, *storeDir)
		root.Finish()
		if err != nil {
			// A corrupt store must stop the server loudly rather than serve
			// 503s that look like a missing -store-dir.
			fmt.Fprintln(os.Stderr, "rwdserve: opening store:", err)
			os.Exit(1)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rwdserve: closing store:", err)
			}
		}()
		srv.AttachStore(st)
		fmt.Fprintf(os.Stderr, "rwdserve store at %s\n", *storeDir)
	}

	if *debugAddr != "" {
		// net/http/pprof registers its handlers on the default mux; keep
		// them off the service handler so profiles are never reachable on
		// the public address.
		go func() {
			fmt.Fprintf(os.Stderr, "rwdserve debug server (pprof) on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rwdserve: debug server:", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwdserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rwdserve listening on %s (max-inflight %d, cache %d, deadlines %s/%s)\n",
		l.Addr(), *maxInflight, *cacheSize, *defaultDeadline, *maxDeadline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdown := make(chan struct{})
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "rwdserve: received %v, draining\n", s)
		close(shutdown)
	}()

	if err := srv.Serve(l, shutdown, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "rwdserve:", err)
		os.Exit(1)
	}
}
