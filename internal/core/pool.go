package core

import (
	"context"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/loggen"
	"repro/internal/obs"
)

// RunLogStudyParallel runs the log study on a bounded worker pool: sources
// fan out concurrently, and within each source the query stream is dealt
// round-robin into cfg.Workers shards that are analyzed by independent
// workers and recombined with MergeShards. Generation itself stays
// sequential per source (the replay bag makes the stream stateful), so the
// corpus — and, after merging, every report — is byte-identical to
// RunLogStudySequential at the same Config, for any worker count.
func RunLogStudyParallel(cfg Config) []*SourceReport {
	return RunLogStudyParallelCtx(context.Background(), cfg)
}

// RunLogStudyParallelCtx is RunLogStudyParallel under a (possibly
// traced) context. Each source gets a "core.source" span with
// "core.generate", per-shard "core.shard", and "core.merge" children,
// so a -trace run shows exactly where a slow study spent its time and
// how the work was distributed across shards. Reports are byte-
// identical to the untraced run at any worker count.
func RunLogStudyParallelCtx(ctx context.Context, cfg Config) []*SourceReport {
	cfg = cfg.normalized()
	sources := loggen.Sources()
	reports := make([]*SourceReport, len(sources))
	// slots caps the total number of busy goroutines — generators and
	// shard analyzers together — at cfg.Workers.
	slots := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for i, s := range sources {
		wg.Add(1)
		go func(i int, s loggen.Source) {
			defer wg.Done()
			srcCtx, span := obs.StartSpan(ctx, "core.source")
			span.SetAttr("source", s.Name)
			defer span.Finish()
			slots <- struct{}{}
			_, genSpan := obs.StartSpan(srcCtx, "core.generate")
			stream := cfg.SourceStream(i)
			genSpan.Count("queries_generated", int64(len(stream)))
			genSpan.Finish()
			<-slots
			reports[i] = analyzeSourceShards(srcCtx, s, stream, cfg.Workers, slots)
		}(i, s)
	}
	wg.Wait()
	return reports
}

// analyzeSourceShards analyzes one source's stream across shard workers,
// each throttled by the shared slot pool, and merges the shards.
func analyzeSourceShards(ctx context.Context, s loggen.Source, stream []string, shards int, slots chan struct{}) *SourceReport {
	parts := ShardSplit(stream, shards)
	analyzers := make([]*Analyzer, len(parts))
	var wg sync.WaitGroup
	for k, part := range parts {
		wg.Add(1)
		go func(k int, part []string) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			a := NewAnalyzer(s.Name)
			a.Report.Wikidata = s.Wikidata
			a.Report.Robotic = s.Robotic
			ingestShard(ctx, a, k, part)
			analyzers[k] = a
		}(k, part)
	}
	wg.Wait()
	_, mergeSpan := obs.StartSpan(ctx, "core.merge")
	mergeSpan.Count("shards", int64(len(analyzers)))
	rep := MergeShards(s.Name, analyzers)
	mergeSpan.Finish()
	return rep
}

// ingestShard pushes one shard through its analyzer under a
// "core.shard" span accounting the ingest volume and outcome. It checks
// ctx cooperatively every 512 queries: a shard whose request has ended
// (service deadline, client gone) stops ingesting instead of running to
// completion, leaving a partial — and clearly marked — report that the
// caller must discard. With a background (never-canceled) context the
// checkpoints never fire and the result is byte-identical to before.
//
// It yields the P after every query. Shards keep every P busy for the
// whole request, and at GOMAXPROCS <= 3 the runtime's background mark
// worker is a fractional one that only runs when a P reschedules: a GC
// cycle that starts mid-request would otherwise wait for an async
// preemption (~10 ms) while the shards keep allocating, so how far the
// heap, and the process's peak RSS, overshoots varies from request to
// request.
func ingestShard(ctx context.Context, a *Analyzer, k int, part []string) {
	_, span := obs.StartSpan(ctx, "core.shard")
	defer span.Finish()
	span.SetAttr("shard", strconv.Itoa(k))
	ingested := span.Counter("queries_ingested")
	for j, q := range part {
		if j&511 == 0 && ctx.Err() != nil {
			span.SetAttr("aborted", "context")
			break
		}
		a.Ingest(q)
		ingested.Inc()
		runtime.Gosched()
	}
	span.Count("valid", int64(a.Report.Valid))
	span.Count("unique", int64(a.Report.Unique))
}
