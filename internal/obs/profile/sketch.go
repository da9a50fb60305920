// Package profile is the live workload-profile engine: it subscribes to
// the same finished-trace feed as the flight recorder and maintains
// distributional statistics over it — sliding-window and process-lifetime
// per-(op, engine) rows, each with per-status request counts, one
// quantile sketch for duration and one for every algorithmic cost
// counter, and exemplar trace ids per quantile band.
//
// It reports only what it measures. It fits no cost model: on the
// benchmark's decide streams no counter's linear fit predicted held-out
// request or span time with r² near 0.8, so a residual score against such
// a model flagged noise. Slow requests are found through the ge_p99
// exemplars and the recorder's sort=slowest query instead.
package profile

import "math"

// The sketch is a fixed-log-bucket histogram: bucket i covers the
// geometric interval [2^(minExp+i/gamma), 2^(minExp+(i+1)/gamma)), so a
// quantile estimate (the geometric midpoint of the bucket holding the
// nearest-rank sample) is off from the true sample at that rank by at
// most a factor of 2^(1/(2*gamma)) — the documented relative error bound
// RelError, pinned by TestSketchQuantileErrorBound. Dependency-free and
// mergeable by bucket-wise addition, which is what lets the sliding
// window merge its ring buckets and the offline replay reproduce the
// live engine exactly.
const (
	sketchGamma  = 16  // buckets per power of two
	sketchMinExp = -10 // values below 2^-10 (≈ 0.001) clamp into bucket 0
	sketchMaxExp = 30  // values above 2^30 (≈ 1.07e9) clamp into the top bucket
	sketchMaxIdx = (sketchMaxExp - sketchMinExp) * sketchGamma
)

// RelError is the sketch's relative error bound on quantile estimates:
// Quantile(q) is within a factor of 1+RelError of the exact nearest-rank
// q-quantile of the observed values, for values inside the sketch range
// [2^-10, 2^30] (milliseconds in practice: 1µs to ~12 days).
var RelError = math.Exp2(1.0/(2*sketchGamma)) - 1 // ≈ 0.0219

// Sketch is the mergeable fixed-log-bucket quantile sketch. The zero
// value is ready to use. Not safe for concurrent use; the engine guards
// every sketch with its own mutex.
type Sketch struct {
	counts []uint64 // grown on demand up to sketchMaxIdx+1
	zeros  uint64   // observations <= 0 (cost counters can be 0)
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// bucketIndex maps a positive value to its bucket.
func bucketIndex(v float64) int {
	i := int(math.Floor((math.Log2(v) - sketchMinExp) * sketchGamma))
	if i < 0 {
		return 0
	}
	if i > sketchMaxIdx {
		return sketchMaxIdx
	}
	return i
}

// bucketMid returns the geometric midpoint of bucket i — the estimate
// reported for any sample that landed there.
func bucketMid(i int) float64 {
	return math.Exp2(sketchMinExp + (float64(i)+0.5)/sketchGamma)
}

// Observe records one value. Values <= 0 are counted in a dedicated
// zero bucket so cost counters that are legitimately zero do not distort
// the positive-value buckets.
func (s *Sketch) Observe(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	if v <= 0 {
		s.zeros++
		return
	}
	i := bucketIndex(v)
	if i >= len(s.counts) {
		grown := make([]uint64, i+1)
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[i]++
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.n }

// Sum returns the sum of observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Min and Max return the exact observed extremes (0 when empty).
func (s *Sketch) Min() float64 { return s.min }
func (s *Sketch) Max() float64 { return s.max }

// Mean returns the exact mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by nearest rank: the
// value of the ceil(q*n)-th smallest observation, within the RelError
// bound. The estimate is clamped to the exact observed [min, max], which
// can only tighten it. Returns 0 on an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	if rank <= s.zeros {
		return 0
	}
	// Ranks 1 and n are the tracked exact extremes; returning them
	// directly keeps the estimate exact even for values outside the
	// bucketed range [2^minExp, 2^maxExp].
	if rank == 1 {
		return s.min
	}
	if rank == s.n {
		return s.max
	}
	cum := s.zeros
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max // unreachable unless counts were merged inconsistently
}

// Merge folds other into s bucket-wise. Merging preserves the RelError
// bound: the union's buckets are the sums of the parts'.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
	if s.n == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.n == 0 || other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
	s.sum += other.sum
	s.zeros += other.zeros
	if len(other.counts) > len(s.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, s.counts)
		s.counts = grown
	}
	for i, c := range other.counts {
		s.counts[i] += c
	}
}
