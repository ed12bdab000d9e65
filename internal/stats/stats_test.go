package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("std = %g, want 2", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Min) || !math.IsNaN(empty.Max) {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {-5, 10}, {150, 40},
		{50, 25}, {25, 17.5}, {75, 32.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if xs[0] != 10 || xs[1] != 20 {
		t.Error("Percentile mutated input")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {-0.5, 1}, {1.5, 4},
		{0.5, 2.5}, {1.0 / 3, 2}, {0.9, 3.7},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Error("Quantile mutated input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if got := QuantileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element quantile = %g, want 7", got)
	}
	// The sorted form reads its input as given, so on an ascending
	// slice it agrees with the copying form bit for bit.
	sorted := []float64{1, 2, 3, 4}
	for q := -0.25; q <= 1.25; q += 0.05 {
		if a, b := QuantileSorted(sorted, q), Quantile(xs, q); a != b {
			t.Errorf("q=%g: sorted %v, copying %v", q, a, b)
		}
	}
}

func TestBoxPlot(t *testing.T) {
	// Data with one clear high outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	b := ComputeBoxPlot(xs)
	if b.Q1 != 3 || b.Median != 5 || b.Q3 != 7 {
		t.Errorf("quartiles = %g/%g/%g, want 3/5/7", b.Q1, b.Median, b.Q3)
	}
	// IQR=4, fences at -3 and 13 → 100 is the only outlier.
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerLo != 1 || b.WhiskerHi != 8 {
		t.Errorf("whiskers = [%g, %g], want [1, 8]", b.WhiskerLo, b.WhiskerHi)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	b := ComputeBoxPlot(nil)
	if !math.IsNaN(b.Median) {
		t.Errorf("empty box plot median = %g", b.Median)
	}
}

func TestBoxPlotConstant(t *testing.T) {
	b := ComputeBoxPlot([]float64{5, 5, 5, 5})
	if b.Q1 != 5 || b.Median != 5 || b.Q3 != 5 {
		t.Errorf("constant quartiles = %+v", b)
	}
	if len(b.Outliers) != 0 {
		t.Errorf("constant data has outliers: %v", b.Outliers)
	}
	if b.WhiskerLo != 5 || b.WhiskerHi != 5 {
		t.Errorf("constant whiskers = [%g, %g]", b.WhiskerLo, b.WhiskerHi)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

// Property: whiskers always lie within [min, max] and enclose the box.
func TestBoxPlotInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) < 4 {
			return true
		}
		b := ComputeBoxPlot(xs)
		s := Summarize(xs)
		if b.WhiskerLo < s.Min-1e-9 || b.WhiskerHi > s.Max+1e-9 {
			return false
		}
		if b.Q1 > b.Median+1e-9 || b.Median > b.Q3+1e-9 {
			return false
		}
		// Outliers + non-outliers account for all points.
		return len(b.Outliers) <= len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
