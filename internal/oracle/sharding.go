package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/loggen"
)

// shardMerge is the always-on invariant of the parallel pipeline: the
// sharded analyze/merge path, and a merge of one analyzer per query,
// must produce a report deeply identical to the sequential reference at
// any shard count, on streams that contain invalid queries, raw repeats
// and cross-shard duplicates. The one-analyzer-per-query side never
// replays a memoized outcome, so a replay bug that every memoized run
// shares still shows up against it.
type shardMerge struct{}

func (shardMerge) Name() string { return "shard-merge" }

func (shardMerge) Description() string {
	return "core.AnalyzeQueries sharded and unmemoized vs sequential on loggen streams with raw repeats"
}

func (o shardMerge) Trial(r *rand.Rand) *Divergence {
	srcs := loggen.Sources()
	s := srcs[r.Intn(len(srcs))]
	g := loggen.NewGen(s, r.Int63())
	n := 15 + r.Intn(25)
	qs := make([]string, 0, n+n/3)
	for i := 0; i < n; i++ {
		qs = append(qs, g.Next())
	}
	// raw repeats of earlier queries at random later positions: those in
	// the same shard as their first occurrence replay from its memo, the
	// others exercise the cross-shard dedup correction
	for i := 0; i < n/3; i++ {
		j := r.Intn(len(qs))
		qs = slices.Insert(qs, j+1+r.Intn(len(qs)-j), qs[j])
	}

	for _, side := range []shardSide{noReplay, sharded(2), sharded(3), sharded(7)} {
		if diff := shardDiff(s.Name, qs, side); diff != "" {
			qs = shrinkList(qs, func(cand []string) bool {
				return shardDiff(s.Name, cand, side) != ""
			})
			return &Divergence{
				Input:  fmt.Sprintf("source=%s side=%s queries=%q", s.Name, side.label, qs),
				Detail: shardDiff(s.Name, qs, side),
			}
		}
	}
	return nil
}

// shardSide is one way of building a stream's report that shardDiff
// compares with a single sequential analyzer.
type shardSide struct {
	label  string
	report func(name string, qs []string) *core.SourceReport
}

// sharded is core.AnalyzeQueries at the given worker count.
func sharded(workers int) shardSide {
	return shardSide{fmt.Sprintf("sharded (workers=%d)", workers), func(name string, qs []string) *core.SourceReport {
		return core.AnalyzeQueries(name, qs, workers)
	}}
}

// noReplay gives every query an analyzer of its own and merges them, so
// no analyzer ever sees a raw repeat.
var noReplay = shardSide{"unmemoized (one analyzer per query)", func(name string, qs []string) *core.SourceReport {
	shards := make([]*core.Analyzer, len(qs))
	for i, q := range qs {
		shards[i] = core.NewAnalyzer(name)
		shards[i].Ingest(q)
	}
	return core.MergeShards(name, shards)
}}

// shardDiff compares the sequential report with the side's, field by
// field, returning a description of the first difference ("" when
// identical).
func shardDiff(name string, qs []string, side shardSide) string {
	seq := core.AnalyzeQueries(name, qs, 1)
	par := side.report(name, qs)
	if reflect.DeepEqual(seq, par) {
		return ""
	}
	type scalar struct {
		field    string
		seq, par int
	}
	scalars := []scalar{
		{"Total", seq.Total, par.Total},
		{"Valid", seq.Valid, par.Valid},
		{"Unique", seq.Unique, par.Unique},
		{"CountedV", seq.CountedV, par.CountedV},
		{"CountedU", seq.CountedU, par.CountedU},
		{"MaxTriples", seq.MaxTriples, par.MaxTriples},
	}
	for _, sc := range scalars {
		if sc.seq != sc.par {
			return fmt.Sprintf("%s %s=%d but sequential %s=%d",
				side.label, sc.field, sc.par, sc.field, sc.seq)
		}
	}
	return fmt.Sprintf("%s report differs from sequential in a counter field (scalars agree)", side.label)
}
