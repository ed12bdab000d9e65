// Package stats provides the summary statistics the paper's tables and
// figures report: min/avg/max job times (Table 2), percentiles
// (Fig 11's 95th-percentile switch times), and box-and-whisker
// statistics (Fig 19's prediction-error plots).
package stats

import (
	"math"
	"sort"
)

// Summary holds basic descriptive statistics.
type Summary struct {
	N         int
	Min, Max  float64
	Mean, Std float64
}

// Summarize computes a Summary of xs. An empty input yields a zero
// Summary with NaN min/max.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.NaN(), Max: math.NaN()}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, v := range xs {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(s.N)
	for _, v := range xs {
		s.Std += (v - s.Mean) * (v - s.Mean)
	}
	s.Std = math.Sqrt(s.Std / float64(s.N))
	return s
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between order statistics. Empty input yields NaN.
func Percentile(xs []float64, p float64) float64 {
	return Quantile(xs, p/100)
}

// Quantile returns the q-quantile (0–1) of xs, leaving xs untouched;
// see QuantileSorted.
func Quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted returns the q-quantile of the ascending slice s,
// interpolating linearly between order statistics: q ≤ 0 yields the
// minimum, q ≥ 1 the maximum, and empty input NaN.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// BoxPlot holds box-and-whisker statistics as the paper defines them
// for Fig 19: the box spans the first and third quartiles with the
// median marked; whiskers cover the non-outlier range; outliers are
// points more than 1.5×IQR beyond the closest box end.
type BoxPlot struct {
	Q1, Median, Q3       float64
	WhiskerLo, WhiskerHi float64
	Outliers             []float64
}

// ComputeBoxPlot derives box-plot statistics from xs. Empty input
// yields NaN fields.
func ComputeBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		nan := math.NaN()
		return BoxPlot{Q1: nan, Median: nan, Q3: nan, WhiskerLo: nan, WhiskerHi: nan}
	}
	b := BoxPlot{
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if v < b.WhiskerLo {
			b.WhiskerLo = v
		}
		if v > b.WhiskerHi {
			b.WhiskerHi = v
		}
	}
	// All points outliers (degenerate); collapse whiskers to median.
	if math.IsInf(b.WhiskerLo, 1) {
		b.WhiskerLo, b.WhiskerHi = b.Median, b.Median
	}
	sort.Float64s(b.Outliers)
	return b
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
