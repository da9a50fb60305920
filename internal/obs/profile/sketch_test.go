package profile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the reference nearest-rank quantile: the ceil(q*n)-th
// smallest element of sorted (the convention Sketch.Quantile documents).
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSketchQuantileErrorBound pins the documented guarantee: for values
// inside the sketch range, Quantile(q) is within a relative factor of
// RelError of the exact nearest-rank quantile, across distributions that
// stress different bucket shapes.
func TestSketchQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() float64{
		"uniform":   func() float64 { return 0.01 + rng.Float64()*100 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64() * 2) },
		"heavytail": func() float64 { return math.Pow(rng.Float64(), -1.5) },
		"tiny":      func() float64 { return 0.002 + rng.Float64()*0.01 },
	}
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for name, gen := range distributions {
		s := &Sketch{}
		values := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := gen()
			values = append(values, v)
			s.Observe(v)
		}
		sort.Float64s(values)
		for _, q := range quantiles {
			exact := exactQuantile(values, q)
			got := s.Quantile(q)
			relErr := math.Abs(got-exact) / exact
			if relErr > RelError {
				t.Errorf("%s q=%g: sketch %g vs exact %g, rel err %.4f > bound %.4f",
					name, q, got, exact, relErr, RelError)
			}
		}
	}
}

func TestSketchZerosAndExactStats(t *testing.T) {
	s := &Sketch{}
	for i := 0; i < 50; i++ {
		s.Observe(0)
	}
	for i := 1; i <= 50; i++ {
		s.Observe(float64(i))
	}
	if got := s.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := s.Quantile(0.25); got != 0 {
		t.Errorf("Quantile(0.25) = %g, want 0 (rank inside zero bucket)", got)
	}
	if got := s.Min(); got != 0 {
		t.Errorf("Min = %g, want 0", got)
	}
	if got := s.Max(); got != 50 {
		t.Errorf("Max = %g, want 50", got)
	}
	wantSum := float64(50 * 51 / 2)
	if got := s.Sum(); got != wantSum {
		t.Errorf("Sum = %g, want %g", got, wantSum)
	}
	if got := s.Mean(); got != wantSum/100 {
		t.Errorf("Mean = %g, want %g", got, wantSum/100)
	}
	// p100 must clamp to the exact max.
	if got := s.Quantile(1); got != 50 {
		t.Errorf("Quantile(1) = %g, want exactly max 50", got)
	}
}

func TestSketchEmpty(t *testing.T) {
	s := &Sketch{}
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
}

// TestSketchMergeEqualsCombined pins mergeability: observing two halves
// separately and merging gives the same sketch state as observing the
// union directly — the property the window ring and offline replay rely
// on.
func TestSketchMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, all := &Sketch{}, &Sketch{}, &Sketch{}
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64())
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged exact stats differ from combined")
	}
	// Sum is float-addition-order dependent; require agreement to 1e-9
	// relative, not bitwise.
	if math.Abs(a.Sum()-all.Sum()) > 1e-9*all.Sum() {
		t.Fatalf("merged sum %g vs combined %g", a.Sum(), all.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("Quantile(%g): merged %g != combined %g", q, got, want)
		}
	}
}

// TestSketchRangeClamp: values outside [2^-10, 2^30] still count, and
// their quantile estimates clamp to the exact observed extremes.
func TestSketchRangeClamp(t *testing.T) {
	s := &Sketch{}
	s.Observe(1e-6)
	s.Observe(1e12)
	if got := s.Quantile(0.5); got != 1e-6 {
		t.Errorf("below-range value: Quantile(0.5) = %g, want clamp to min 1e-6", got)
	}
	if got := s.Quantile(1); got != 1e12 {
		t.Errorf("above-range value: Quantile(1) = %g, want clamp to max 1e12", got)
	}
}
