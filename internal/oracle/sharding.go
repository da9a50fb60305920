package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/sparql"
)

// shardMerge is the always-on invariant of the parallel pipeline: the
// sharded analyze/merge path, and a merge of one analyzer per query,
// must produce a report deeply identical to the sequential reference at
// any shard count, on streams that contain invalid queries, raw repeats
// and canonically equal respellings. The one-analyzer-per-query side
// never replays a memoized outcome, so a replay bug that every memoized
// run shares still shows up against it.
type shardMerge struct{}

// shardCounts are the worker counts of the sharded sides.
var shardCounts = []int{2, 3, 7}

func (shardMerge) Name() string { return "shard-merge" }

func (shardMerge) Description() string {
	return "core.AnalyzeQueries sharded and unmemoized vs sequential on loggen streams with raw repeats and respellings"
}

func (o shardMerge) Trial(r *rand.Rand) *Divergence {
	srcs := loggen.Sources()
	s := srcs[r.Intn(len(srcs))]
	g := loggen.NewGen(s, r.Int63())
	n := 15 + r.Intn(25)
	qs := make([]string, 0, n+2*(n/3)+1)
	for i := 0; i < n; i++ {
		qs = append(qs, g.Next())
	}
	// raw repeats of earlier queries at random later positions: each
	// lands in the shard of its first occurrence and replays from its memo
	for i := 0; i < n/3; i++ {
		j := r.Intn(len(qs))
		qs = slices.Insert(qs, j+1+r.Intn(len(qs)-j), qs[j])
	}
	// raw repeats never cross a shard, so only canonically equal
	// respellings reach MergeShards' cross-shard correction: respellings
	// of earlier queries at random later positions, plus one of the first
	// valid query that leaves its shard at every tested shard count
	for i := 0; i < n/3; i++ {
		j := r.Intn(len(qs))
		qs = slices.Insert(qs, j+1+r.Intn(len(qs)-j), respell(qs[j], 1))
	}
	if j := slices.IndexFunc(qs, func(q string) bool { _, err := sparql.Parse(q); return err == nil }); j >= 0 {
		for extra := 1; extra <= 64; extra++ {
			re := respell(qs[j], extra)
			pair := []string{qs[j], re}
			if !slices.ContainsFunc(shardCounts, func(w int) bool { return crossShardForms(pair, w) == 0 }) {
				qs = slices.Insert(qs, j+1+r.Intn(len(qs)-j), re)
				break
			}
		}
		for _, w := range shardCounts {
			if crossShardForms(qs, w) == 0 {
				return &Divergence{
					Input:  fmt.Sprintf("source=%s workers=%d queries=%q", s.Name, w, qs),
					Detail: "no canonical form is first seen in more than one shard: the trial does not reach the cross-shard correction",
				}
			}
		}
	}

	sides := []shardSide{noReplay}
	for _, w := range shardCounts {
		sides = append(sides, sharded(w))
	}
	for _, side := range sides {
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

// respell returns q with extra more spaces after its first one: the same
// canonical form under another raw string.
func respell(q string, extra int) string {
	return strings.Replace(q, " ", strings.Repeat(" ", 1+extra), 1)
}

// crossShardForms counts the canonical forms that the valid queries of
// qs bring to more than one shard of core.ShardSplit(qs, n).
func crossShardForms(qs []string, n int) int {
	shardOf := map[string]int{}
	cross := map[string]bool{}
	for k, part := range core.ShardSplit(qs, n) {
		for _, q := range part {
			p, err := sparql.Parse(q)
			if err != nil {
				continue
			}
			canon := p.Canonical()
			if s, ok := shardOf[canon]; !ok {
				shardOf[canon] = k
			} else if s != k {
				cross[canon] = true
			}
		}
	}
	return len(cross)
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
