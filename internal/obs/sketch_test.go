package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile computes the reference quantile on a sorted sample
// with the same midpoint-interpolation convention the sketch uses.
func exactQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p*float64(n) - 0.5
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileErr measures sketch error in *rank* space normalized by n —
// the metric t-digests bound. A value-space check would blow up on
// heavy-tailed distributions where adjacent order statistics are far
// apart even for an exact algorithm.
func quantileErr(sorted []float64, got float64, p float64) float64 {
	n := len(sorted)
	rank := sort.SearchFloat64s(sorted, got)
	return math.Abs(float64(rank)/float64(n) - p)
}

// TestQuantileSketchAccuracy: ≤1% rank error at q50/q95/q99 on 100k
// samples across distribution shapes, with centroid count (memory)
// staying within the fixed bound.
func TestQuantileSketchAccuracy(t *testing.T) {
	const n = 100_000
	dists := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() }},
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64() }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(2 * r.NormFloat64()) }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return r.NormFloat64()
			}
			return 50 + 0.1*r.NormFloat64()
		}},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			s := NewQuantileSketch(0)
			vals := make([]float64, n)
			for i := range vals {
				v := d.gen(r)
				vals[i] = v
				s.Add(v)
			}
			sort.Float64s(vals)
			for _, p := range []float64{0.50, 0.95, 0.99} {
				got := s.Quantile(p)
				if err := quantileErr(vals, got, p); err > 0.01 {
					t.Errorf("q%.0f: sketch %.6g, exact %.6g, rank error %.4f > 1%%",
						p*100, got, exactQuantile(vals, p), err)
				}
			}
			if c := s.Centroids(); c > 4*defaultCompression {
				t.Errorf("centroid count %d exceeds fixed capacity %d", c, 4*defaultCompression)
			}
			if got, want := s.Count(), float64(n); got != want {
				t.Errorf("Count() = %v, want %v", got, want)
			}
			if got := s.Quantile(0); got != vals[0] {
				t.Errorf("Quantile(0) = %v, want exact min %v", got, vals[0])
			}
			if got := s.Quantile(1); got != vals[n-1] {
				t.Errorf("Quantile(1) = %v, want exact max %v", got, vals[n-1])
			}
		})
	}
}

// TestQuantileSketchMergeAccuracy: sharding a stream over 32 sketches
// and merging must stay within the same 1% rank-error budget as a
// single sketch.
func TestQuantileSketchMergeAccuracy(t *testing.T) {
	const n = 100_000
	const shards = 32
	r := rand.New(rand.NewSource(7))
	parts := make([]*QuantileSketch, shards)
	for i := range parts {
		parts[i] = NewQuantileSketch(0)
	}
	vals := make([]float64, n)
	for i := range vals {
		v := r.ExpFloat64() * 10
		vals[i] = v
		parts[i%shards].Add(v)
	}
	merged := NewQuantileSketch(0)
	for _, p := range parts {
		merged.Merge(p)
	}
	sort.Float64s(vals)
	if got, want := merged.Count(), float64(n); got != want {
		t.Fatalf("merged Count() = %v, want %v", got, want)
	}
	for _, p := range []float64{0.50, 0.95, 0.99} {
		got := merged.Quantile(p)
		if err := quantileErr(vals, got, p); err > 0.01 {
			t.Errorf("merged q%.0f: sketch %.6g, rank error %.4f > 1%%", p*100, got, err)
		}
	}
}

// TestQuantileSketchMergeDeterminism: the state after a merge is a
// pure function of the operand states — same shard contents merged in
// the same order must yield bit-identical quantiles, run after run.
// This is what makes fleet reports byte-stable across worker counts.
func TestQuantileSketchMergeDeterminism(t *testing.T) {
	build := func() *QuantileSketch {
		r := rand.New(rand.NewSource(99))
		parts := make([]*QuantileSketch, 8)
		for i := range parts {
			parts[i] = NewQuantileSketch(0)
		}
		for i := 0; i < 50_000; i++ {
			parts[i%len(parts)].Add(r.NormFloat64())
		}
		out := NewQuantileSketch(0)
		for _, p := range parts {
			out.Merge(p)
		}
		return out
	}
	a, b := build(), build()
	for p := 0.0; p <= 1.0; p += 0.01 {
		qa, qb := a.Quantile(p), b.Quantile(p)
		if math.Float64bits(qa) != math.Float64bits(qb) {
			t.Fatalf("quantile %.2f differs across identical runs: %v vs %v", p, qa, qb)
		}
	}
	if a.Centroids() != b.Centroids() {
		t.Fatalf("centroid counts differ: %d vs %d", a.Centroids(), b.Centroids())
	}
}

// TestQuantileSketchEdgeCases: empty, single-value, non-finite inputs.
func TestQuantileSketchEdgeCases(t *testing.T) {
	s := NewQuantileSketch(0)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Errorf("empty sketch Quantile = %v, want NaN", s.Quantile(0.5))
	}
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	if s.Count() != 0 {
		t.Errorf("non-finite inputs counted: %v", s.Count())
	}
	s.Add(3.5)
	for _, p := range []float64{0, 0.5, 1} {
		if got := s.Quantile(p); got != 3.5 {
			t.Errorf("single-value Quantile(%v) = %v, want 3.5", p, got)
		}
	}
	// Monotonicity over a small stream.
	for i := 0; i < 1000; i++ {
		s.Add(float64(i % 97))
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.001 {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%.3f: %v < %v", p, q, prev)
		}
		prev = q
	}
}

// TestSketchAddZeroAlloc: the //dvfs:hotpath insert — including the
// buffer-flush compaction it periodically triggers — must not
// allocate. Gated by `make alloc-gate`.
func TestSketchAddZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	s := NewQuantileSketch(0)
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		s.Add(vals[i%len(vals)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("QuantileSketch.Add allocated %.1f times per run", allocs)
	}
}
