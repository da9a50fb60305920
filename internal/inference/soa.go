// Package inference implements the schema-inference algorithms surveyed in
// Section 4.2.3 of "Towards Theory for Real-World Data": learning concise
// regular expressions from positive examples.
//
//   - InferSORE: 2T-INF (single-occurrence automaton from the sample)
//     followed by RWR rewriting into a single-occurrence regular expression,
//     after Bex, Neven, Schwentick & Tuyls ("Inference of Concise DTDs from
//     XML Data") — with the repair steps that guarantee a result on every
//     input, at the price of generalization.
//   - InferCHARE: the CRX algorithm of Bex, Neven, Schwentick &
//     Vansummeren, producing an expression that is simultaneously a SORE
//     and a sequential (chain) regular expression — the class covering over
//     90% of real-world DTD expressions.
//   - InferKORE: an iDREGEx-style learner for k-occurrence expressions for
//     increasing k. The published iDREGEx is probabilistic (Hidden Markov
//     Models); this implementation uses a deterministic occurrence-marking
//     heuristic and is documented as a simplification in DESIGN.md.
//   - InferDTD (dtdinfer.go): lifts word-level inference to trees.
//
// All inference functions maintain the learning-from-positive-data
// invariant of Definition 4.7(1): the sample is always contained in the
// language of the result.
package inference

import (
	"sort"
)

// Sample is a finite set of words over Lab (Definition 4.7). Duplicates are
// allowed and ignored.
type Sample [][]string

// Alphabet returns the sorted set of labels occurring in the sample.
func (s Sample) Alphabet() []string {
	set := map[string]bool{}
	for _, w := range s {
		for _, a := range w {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// SOA is a single-occurrence automaton (the 2T-INF automaton of Garcia &
// Vidal): one state per alphabet symbol plus a source and a sink; there is
// an edge a→b iff ab occurs as a factor of some sample word.
type SOA struct {
	// Succ maps a state to its successor set. States are labels, plus the
	// virtual "⊢" (source) and "⊣" (sink).
	Succ map[string]map[string]bool
}

// Source and Sink are the virtual states of an SOA.
const (
	Source = "⊢"
	Sink   = "⊣"
)

// BuildSOA runs 2T-INF on the sample.
func BuildSOA(s Sample) *SOA {
	soa := &SOA{Succ: map[string]map[string]bool{Source: {}, Sink: {}}}
	add := func(from, to string) {
		m := soa.Succ[from]
		if m == nil {
			m = map[string]bool{}
			soa.Succ[from] = m
		}
		m[to] = true
	}
	for _, w := range s {
		if len(w) == 0 {
			add(Source, Sink)
			continue
		}
		add(Source, w[0])
		for i := 0; i+1 < len(w); i++ {
			add(w[i], w[i+1])
		}
		add(w[len(w)-1], Sink)
	}
	// ensure every mentioned state has a successor map
	for _, m := range soa.Succ {
		for to := range m {
			if soa.Succ[to] == nil {
				soa.Succ[to] = map[string]bool{}
			}
		}
	}
	return soa
}

// States returns the sorted states of the SOA (including Source and Sink).
func (soa *SOA) States() []string {
	out := make([]string, 0, len(soa.Succ))
	for q := range soa.Succ {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// Accepts reports whether the SOA accepts the word (used in tests: the SOA
// language always contains the sample).
func (soa *SOA) Accepts(w []string) bool {
	cur := Source
	for _, a := range w {
		if !soa.Succ[cur][a] {
			return false
		}
		cur = a
	}
	return soa.Succ[cur][Sink]
}
