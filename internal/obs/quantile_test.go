package obs

import (
	"math"
	"math/rand"
	"testing"
)

// Edge cases the bucket-walking estimator must survive: empty
// histogram, a single observation, everything in the +Inf overflow
// bucket, and the degenerate probabilities p=0 and p=1.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1e-4, 1e-3, 1e-2, 1e-1}

	t.Run("empty", func(t *testing.T) {
		h := NewRegistry().Histogram("test_q_empty", "q", bounds)
		for _, p := range []float64{0, 0.5, 1} {
			if !math.IsNaN(h.Quantile(p)) {
				t.Errorf("Quantile(%g) on empty histogram = %g, want NaN", p, h.Quantile(p))
			}
		}
	})

	t.Run("single observation", func(t *testing.T) {
		h := NewRegistry().Histogram("test_q_single", "q", bounds)
		h.Observe(5e-3)
		// Every quantile of a one-point distribution must land inside
		// the containing bucket (1e-3, 1e-2].
		for _, p := range []float64{0.01, 0.5, 0.99, 1} {
			q := h.Quantile(p)
			if q < 1e-3 || q > 1e-2*(1+1e-12) {
				t.Errorf("Quantile(%g) = %g, want within (1e-3, 1e-2]", p, q)
			}
		}
	})

	t.Run("overflow bucket", func(t *testing.T) {
		h := NewRegistry().Histogram("test_q_inf", "q", bounds)
		for i := 0; i < 10; i++ {
			h.Observe(1e3) // far past the last finite bound
		}
		// The estimator cannot see past the last finite bound; it must
		// answer that bound, not +Inf or garbage.
		for _, p := range []float64{0.5, 0.99, 1} {
			if q := h.Quantile(p); q != 1e-1 {
				t.Errorf("Quantile(%g) = %g, want last finite bound 1e-1", p, q)
			}
		}
	})

	t.Run("p extremes", func(t *testing.T) {
		h := NewRegistry().Histogram("test_q_pext", "q", bounds)
		for i := 1; i <= 100; i++ {
			h.Observe(float64(i) * 1e-3) // spread across buckets incl. overflow
		}
		q0, q1 := h.Quantile(0), h.Quantile(1)
		if math.IsNaN(q0) || math.IsNaN(q1) {
			t.Fatalf("p extremes returned NaN: %g, %g", q0, q1)
		}
		if q0 > q1 {
			t.Errorf("Quantile(0) = %g > Quantile(1) = %g", q0, q1)
		}
		if q1 != 1e-1 {
			t.Errorf("Quantile(1) = %g, want last finite bound (data overflow)", q1)
		}
	})
}

// Property: for any fixed set of observations the quantile estimate is
// non-decreasing in p — interpolation inside a bucket must never cross
// bucket order.
func TestHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		h := NewRegistry().Histogram("test_q_mono", "q", LogLinearBuckets(1e-6, 1, 4))
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			// Log-uniform values, some past the top bound into +Inf.
			h.Observe(math.Pow(10, -7+8*rng.Float64()))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0+1e-9; p += 0.01 {
			q := h.Quantile(p)
			if math.IsNaN(q) {
				t.Fatalf("trial %d: Quantile(%g) = NaN with %d observations", trial, p, n)
			}
			if q < prev {
				t.Fatalf("trial %d: Quantile not monotone at p=%g: %g < %g", trial, p, q, prev)
			}
			prev = q
		}
	}
}

// quantileSorted (the drift monitor's exact estimator) shares the
// monotonicity requirement.
func TestQuantileSortedMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		d := NewDriftMonitor(DriftConfig{})
		for _, x := range xs {
			d.Observe("w", x)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0+1e-9; p += 0.05 {
			q := d.Quantile("w", p)
			if q < prev {
				t.Fatalf("trial %d: drift Quantile not monotone at p=%g", trial, p)
			}
			prev = q
		}
	}
}
