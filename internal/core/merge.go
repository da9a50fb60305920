package core

import (
	"context"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// forEachCounter pairs every Counter2 of dst with the corresponding
// counter of src and applies f, materializing dst map entries for keys
// that only src has. It is the single field walk behind the group-level
// Merge and the map from shard counters to merged counters that the
// shard-level dedup correction uses, so a report field added in one
// place is added everywhere.
func forEachCounter(dst *SourceReport, src *SourceReport, f func(dst, src *Counter2)) {
	for i := range src.TripleBuckets {
		f(&dst.TripleBuckets[i], &src.TripleBuckets[i])
	}
	pairMap(dst.Features, src.Features, f)
	pairMap(dst.OperatorSets, src.OperatorSets, f)
	f(&dst.AFO, &src.AFO)
	f(&dst.WellDesigned, &src.WellDesigned)
	f(&dst.WellBehaved, &src.WellBehaved)
	ht := func(d, s *HypertreeStats) {
		f(&d.FCA, &s.FCA)
		f(&d.Htw1, &s.Htw1)
		f(&d.Htw2, &s.Htw2)
		f(&d.Htw3, &s.Htw3)
		f(&d.Total, &s.Total)
	}
	ht(&dst.CQ, &src.CQ)
	ht(&dst.CQF, &src.CQF)
	f(&dst.SafeFilterOnly, &src.SafeFilterOnly)
	f(&dst.SimpleFilterOnly, &src.SimpleFilterOnly)
	f(&dst.GraphCQF, &src.GraphCQF)
	for i := range src.ShapeWith {
		f(&dst.ShapeWith[i], &src.ShapeWith[i])
		f(&dst.ShapeWithout[i], &src.ShapeWithout[i])
	}
	pairMap(dst.PPRows, src.PPRows, f)
	f(&dst.PPTotal, &src.PPTotal)
	f(&dst.PPQueries, &src.PPQueries)
	f(&dst.NonSTE, &src.NonSTE)
	f(&dst.NonCtract, &src.NonCtract)
	f(&dst.NonTtract, &src.NonTtract)
}

// pairMap applies f to the dst/src counters of every key present in src,
// materializing missing dst entries.
func pairMap[K comparable](dm, sm map[K]*Counter2, f func(dst, src *Counter2)) {
	for k, c := range sm {
		d := dm[k]
		if d == nil {
			d = &Counter2{}
			dm[k] = d
		}
		f(d, c)
	}
}

// Merge combines several source reports into a group report (the paper
// aggregates DBpedia–BritM vs Wikidata in Tables 3–8). Both the V and U
// sides are additive: group members are distinct sources, so their unique
// sets are counted per source, exactly as the paper sums Table 2 rows.
// For shards of a single source use MergeShards, which deduplicates the
// U side across shards.
func Merge(name string, reports []*SourceReport) *SourceReport {
	out := NewSourceReport(name)
	for _, r := range reports {
		out.Total += r.Total
		out.Valid += r.Valid
		out.Unique += r.Unique
		out.CountedV += r.CountedV
		out.CountedU += r.CountedU
		if r.MaxTriples > out.MaxTriples {
			out.MaxTriples = r.MaxTriples
		}
		forEachCounter(out, r, func(d, s *Counter2) {
			d.V += s.V
			d.U += s.U
		})
	}
	return out
}

// MergeShards combines analyzers that each ingested one shard of the SAME
// source stream into the report a single sequential analyzer would have
// produced over the whole stream.
//
// V-side counts (and Total/Valid) are additive, since every occurrence of
// every query lives in exactly one shard. The U side needs cross-shard
// dedup: a canonical form first seen in k > 1 shards contributed a unique
// bump k times but must count once. The outcome each shard recorded for
// the form's first occurrence is exactly that contribution, so it is
// subtracted k−1 times from the merged counters the outcome's counters
// map to — making the merged report byte-identical to the sequential one
// at any shard count, without analyzing any query again.
func MergeShards(name string, shards []*Analyzer) *SourceReport {
	reports := make([]*SourceReport, len(shards))
	for i, a := range shards {
		reports[i] = a.Report
	}
	out := Merge(name, reports)
	merged := map[*Counter2]*Counter2{}
	type firsts struct {
		o *outcome
		k int
	}
	forms := map[string]firsts{}
	for _, a := range shards {
		forEachCounter(out, a.Report, func(d, s *Counter2) { merged[s] = d })
		for canon, o := range a.seen {
			f, ok := forms[canon]
			if !ok {
				f.o = o
			}
			f.k++
			forms[canon] = f
		}
	}
	for _, f := range forms {
		n := f.k - 1
		if n == 0 {
			continue
		}
		out.Unique -= n
		if f.o.counted {
			out.CountedU -= n
		}
		for _, c := range f.o.touched {
			merged[c].U -= n
		}
	}
	return out
}

// ShardSplit splits a query stream into n shards (some may be empty),
// sending each query to the shard picked by a 64-bit FNV-1a hash of its
// raw string. The hash has no per-process seed, so a stream splits the
// same way in every process. Every copy of a raw string lands in the
// shard of its first occurrence, whose analyzer replays it from its
// memo; only canonically equal strings spelled differently can be first
// seen in more than one shard, and MergeShards corrects for those. Each
// shard keeps stream order, so per-shard dedup sees first occurrences
// first.
func ShardSplit(queries []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	out := make([][]string, n)
	for _, q := range queries {
		h := uint64(14695981039346656037)
		for i := 0; i < len(q); i++ {
			h ^= uint64(q[i])
			h *= 1099511628211
		}
		// FNV's low bits depend only on the low bits of the input bytes
		// (at n = 2, h%2 is the parity of the odd bytes) and its high
		// bits barely on the last bytes, so a round of murmur3's
		// finalizer mixes the high bits into the low ones before the
		// modulus.
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		k := h % uint64(n)
		out[k] = append(out[k], q)
	}
	return out
}

// AnalyzeQueries pushes a corpus of raw query strings through the full
// battery, sharded over the given number of workers (<= 0 means one per
// CPU; 1 runs sequentially). The result is identical at any worker count.
func AnalyzeQueries(name string, queries []string, workers int) *SourceReport {
	return AnalyzeQueriesCtx(context.Background(), name, queries, workers)
}

// AnalyzeQueriesCtx is AnalyzeQueries under a (possibly traced)
// context: per-shard "core.shard" spans account the ingest volume and
// a "core.merge" span covers the recombination — the breakdown the
// service's /v1/analyze explain mode returns. The report is identical
// to the untraced run at any worker count.
func AnalyzeQueriesCtx(ctx context.Context, name string, queries []string, workers int) *SourceReport {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		a := NewAnalyzer(name)
		ingestShard(ctx, a, 0, queries)
		return a.Report
	}
	parts := ShardSplit(queries, workers)
	shards := make([]*Analyzer, len(parts))
	var wg sync.WaitGroup
	for k, part := range parts {
		wg.Add(1)
		go func(k int, part []string) {
			defer wg.Done()
			a := NewAnalyzer(name)
			ingestShard(ctx, a, k, part)
			shards[k] = a
		}(k, part)
	}
	wg.Wait()
	_, mergeSpan := obs.StartSpan(ctx, "core.merge")
	mergeSpan.Count("shards", int64(len(shards)))
	rep := MergeShards(name, shards)
	mergeSpan.Finish()
	return rep
}

// ingestShard pushes one shard through its analyzer under a
// "core.shard" span accounting the ingest volume and outcome. Every 64
// queries it reaches a checkpoint that checks ctx cooperatively: a
// shard whose request has ended (service deadline, client gone) stops
// ingesting instead of running to completion, leaving a partial — and
// clearly marked — report that the caller must discard. With a
// background (never-canceled) context the checkpoints never abort.
//
// The checkpoint also yields the P. Concurrent shards, and concurrent
// calls, can keep every P busy, and at GOMAXPROCS <= 3 the runtime's
// background mark worker is a fractional one that only runs when a P
// reschedules: a GC cycle that starts mid-call would otherwise wait for
// an async preemption (~10 ms) while the shards keep allocating, so how
// far the heap, and the process's peak RSS, overshoots would vary from
// call to call. Yielding every 64 queries (a few ms of work at most)
// offers the mark worker a P that often without paying a reschedule per
// query.
func ingestShard(ctx context.Context, a *Analyzer, k int, part []string) {
	_, span := obs.StartSpan(ctx, "core.shard")
	defer span.Finish()
	span.SetAttr("shard", strconv.Itoa(k))
	ingested := span.Counter("queries_ingested")
	for j, q := range part {
		if j&63 == 0 {
			if ctx.Err() != nil {
				span.SetAttr("aborted", "context")
				break
			}
			runtime.Gosched()
		}
		a.Ingest(q)
		ingested.Inc()
	}
	span.Count("memo_hits", int64(a.memoHits))
	span.Count("valid", int64(a.Report.Valid))
	span.Count("unique", int64(a.Report.Unique))
}
