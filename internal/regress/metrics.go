package regress

import (
	"fmt"
	"math"
)

// ErrorStats summarizes prediction errors e = ŷ − y. Positive errors
// are over-predictions (safe, wasteful), negative errors are
// under-predictions (deadline-miss risk) — the paper's Fig 19 shows
// these as box plots.
type ErrorStats struct {
	N          int
	Mean       float64
	MAE        float64
	RMSE       float64
	MaxOver    float64 // largest over-prediction (≥0)
	MaxUnder   float64 // most negative under-prediction (≤0)
	UnderCount int     // number of under-predictions
}

// Errors computes ŷ − y pairwise.
func Errors(pred, y []float64) []float64 {
	e := make([]float64, len(y))
	for i := range y {
		e[i] = pred[i] - y[i]
	}
	return e
}

// ComputeErrorStats summarizes a set of prediction errors.
func ComputeErrorStats(errs []float64) ErrorStats {
	st := ErrorStats{N: len(errs)}
	if st.N == 0 {
		return st
	}
	for _, e := range errs {
		st.Mean += e
		st.MAE += math.Abs(e)
		st.RMSE += e * e
		if e > st.MaxOver {
			st.MaxOver = e
		}
		if e < st.MaxUnder {
			st.MaxUnder = e
		}
		if e < 0 {
			st.UnderCount++
		}
	}
	n := float64(st.N)
	st.Mean /= n
	st.MAE /= n
	st.RMSE = math.Sqrt(st.RMSE / n)
	return st
}

func (s ErrorStats) String() string {
	return fmt.Sprintf("n=%d mean=%.3g mae=%.3g rmse=%.3g maxOver=%.3g maxUnder=%.3g under=%d",
		s.N, s.Mean, s.MAE, s.RMSE, s.MaxOver, s.MaxUnder, s.UnderCount)
}
