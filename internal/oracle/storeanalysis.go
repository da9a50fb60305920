package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/rdf"
	"repro/internal/store"
)

// storeAnalysis is the end-to-end differential check of the persistent
// corpus store: a seeded log corpus and a seeded triple graph are
// ingested, flushed (sometimes across several segments), the store is
// closed and REOPENED from disk, and the store-backed analysis — log
// lines through core.AnalyzeQueries, the stored graph through
// Store.RDFStats — must be byte-identical (JSON) to the in-memory
// analysis of the same data. This is the invariant the service's
// corpus-backed /v1/analyze relies on.
//
// RDFStats memoizes per commit generation, so the stats are also
// checked, each twice (a miss or a hit, then a hit), after every step
// that could move the generation or wrongly not move it: every ingest
// round, a context-cancelled partial ingest, a duplicate-only
// re-ingest, a compaction, and the reopen.
type storeAnalysis struct{}

// injectStaleMemo is the SetInjectedBug mode in which the oracle keeps
// the first RDFStats answer of a trial and replays it for every later
// call, reopen included — what a memo that ignored the generation
// would serve.
const injectStaleMemo = "store-analysis-stale-memo"

func (storeAnalysis) Name() string { return "store-analysis" }

func (storeAnalysis) Description() string {
	return "store-backed analysis and memoized RDF stats, across ingests and after reopen, vs in-memory on seeded log and triple corpora"
}

// storePlan fixes a trial's write schedule: flushes mid-ingest flush
// points split the corpora across segments (exercising the
// multi-segment merge on the read side), round cancelRound first runs
// a cancelled ingest that keeps a cancelPick-derived prefix of its
// batch, and round compactRound ends in a compaction.
type storePlan struct {
	flushes, cancelRound, cancelPick, compactRound int
}

func (o storeAnalysis) Trial(r *rand.Rand) *Divergence {
	srcs := loggen.Sources()
	src := srcs[r.Intn(len(srcs))]
	g := loggen.NewGen(src, r.Int63())
	n := 15 + r.Intn(25)
	qs := make([]string, 0, n+n/3)
	for i := 0; i < n; i++ {
		qs = append(qs, g.Next())
	}
	// Duplicates are the interesting case: the store must preserve them
	// (and their order) for Total/Valid/Unique to come out identical.
	for i := 0; i < n/3; i++ {
		qs = append(qs, qs[r.Intn(n)])
	}
	graph := rdf.DefaultGen().Graph(r, 30+r.Intn(120))
	p := storePlan{flushes: r.Intn(3)}
	p.cancelRound = r.Intn(p.flushes + 1)
	p.cancelPick = r.Intn(1 << 20)
	p.compactRound = r.Intn(p.flushes + 1)

	if diff := storeDiff(src.Name, qs, graph, p); diff != "" {
		qs = shrinkList(qs, func(cand []string) bool {
			return storeDiff(src.Name, cand, graph, p) != ""
		})
		return &Divergence{
			Input:  fmt.Sprintf("source=%s plan=%+v queries=%q graph=%d triples", src.Name, p, qs, graph.Len()),
			Detail: storeDiff(src.Name, qs, graph, p),
		}
	}
	return nil
}

// storeDiff runs the full write → close → reopen → read → analyze cycle
// and compares against the in-memory reference, returning a description
// of the first difference ("" when byte-identical).
func storeDiff(name string, qs []string, graph *rdf.Graph, p storePlan) string {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "oracle-store-*")
	if err != nil {
		return fmt.Sprintf("mkdir temp: %v", err)
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(dir)
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	// ingested is the in-memory prefix of the graph stored so far.
	ingested := rdf.NewGraph()
	add := func(ts []rdf.Triple) {
		for _, t := range ts {
			ingested.Add(t.S, t.P, t.O)
		}
	}
	var first *rdf.Stats // the first answer, for injectStaleMemo
	statsDiff := func(st *store.Store, step string) string {
		want := rdf.ComputeStats(ingested)
		for call := 0; call < 2; call++ {
			got, err := st.RDFStats(ctx, "graph")
			if err != nil {
				return fmt.Sprintf("rdf stats %s: %v", step, err)
			}
			if injectedBug == injectStaleMemo {
				if first == nil {
					first = got
				}
				got = first
			}
			if diff := jsonDiff(fmt.Sprintf("rdf stats %s (call %d)", step, call+1), want, got); diff != "" {
				return diff
			}
		}
		return ""
	}
	fail := func(diff string) string {
		st.Close()
		return diff
	}
	// Ingest in interleaved slices with flushes in between, so each
	// corpus can span the memtable and several committed segments. The
	// slice bounds are computed per corpus (never from the other one),
	// so shrinking the query list does not change triple ingestion.
	triples := graph.Triples()
	rounds := p.flushes + 1
	for i := 0; i < rounds; i++ {
		qlo, qhi := i*len(qs)/rounds, (i+1)*len(qs)/rounds
		if _, err := st.IngestLog(ctx, "logs", qs[qlo:qhi]); err != nil {
			return fail(fmt.Sprintf("ingest log: %v", err))
		}
		tlo, thi := i*len(triples)/rounds, (i+1)*len(triples)/rounds
		batch := triples[tlo:thi]
		if i == p.cancelRound && len(batch) >= 2 {
			keep := 1 + p.cancelPick%(len(batch)-1)
			n, diff := cancelledIngest(st, batch, keep)
			if diff != "" {
				return fail(diff)
			}
			add(batch[:n])
			if diff := statsDiff(st, "after a cancelled partial ingest"); diff != "" {
				return fail(diff)
			}
		}
		if _, err := st.IngestTriples(ctx, "graph", batch); err != nil {
			return fail(fmt.Sprintf("ingest triples: %v", err))
		}
		add(batch)
		if diff := statsDiff(st, fmt.Sprintf("after ingest round %d", i)); diff != "" {
			return fail(diff)
		}
		if n, err := st.IngestTriples(ctx, "graph", triples[:thi]); err != nil || n != 0 {
			return fail(fmt.Sprintf("duplicate-only re-ingest: added %d, err %v", n, err))
		}
		if diff := statsDiff(st, "after a duplicate-only re-ingest"); diff != "" {
			return fail(diff)
		}
		if i == p.compactRound {
			if err := st.Compact(ctx); err != nil {
				return fail(fmt.Sprintf("compact: %v", err))
			}
			if diff := statsDiff(st, "after a compaction"); diff != "" {
				return fail(diff)
			}
		}
		if i+1 < rounds {
			if err := st.Flush(ctx); err != nil {
				return fail(fmt.Sprintf("flush: %v", err))
			}
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Sprintf("close: %v", err)
	}

	st2, err := store.OpenExisting(dir)
	if err != nil {
		return fmt.Sprintf("reopen: %v", err)
	}
	defer st2.Close()

	lines, err := st2.LogLines(ctx, "logs")
	if err != nil {
		return fmt.Sprintf("log lines: %v", err)
	}
	if injectedBug == "store-analysis" && len(lines) > 0 {
		lines = lines[:len(lines)-1]
	}
	memRep := core.AnalyzeQueries(name, qs, 1)
	storeRep := core.AnalyzeQueries(name, lines, 1)
	if diff := jsonDiff("report", memRep, storeRep); diff != "" {
		return diff
	}
	return statsDiff(st2, "after reopen")
}

// cancelledIngest ingests batch under a cancelled context and returns
// how many triples it accepted. The ingest stops at its first
// cancellation checkpoint, wherever the store puts it, so batch[:keep]
// goes first, then a run of duplicates of batch[0] longer than any
// checkpoint stride, then the rest of the batch. The duplicates add
// nothing and ingest is in order, so the accepted triples are always
// batch[:n]: n == keep unless the checkpoint comes before the run.
func cancelledIngest(st *store.Store, batch []rdf.Triple, keep int) (int, string) {
	const run = 1 << 13
	padded := make([]rdf.Triple, 0, len(batch)+run)
	padded = append(padded, batch[:keep]...)
	for i := 0; i < run; i++ {
		padded = append(padded, batch[0])
	}
	padded = append(padded, batch[keep:]...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := st.IngestTriples(ctx, "graph", padded)
	if err != nil && !errors.Is(err, context.Canceled) {
		return n, fmt.Sprintf("cancelled ingest: added %d, err %v", n, err)
	}
	return n, ""
}

// jsonDiff compares the canonical JSON of both values: the service
// promises byte-identical responses, so the comparison is on bytes,
// not on approximate equality.
func jsonDiff(what string, mem, stored any) string {
	a, err := json.Marshal(mem)
	if err != nil {
		return fmt.Sprintf("marshal in-memory %s: %v", what, err)
	}
	b, err := json.Marshal(stored)
	if err != nil {
		return fmt.Sprintf("marshal store-backed %s: %v", what, err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Sprintf("store-backed %s differs from in-memory:\n  mem:   %s\n  store: %s", what, a, b)
	}
	return ""
}
