package regress

import (
	"fmt"
	"math"
)

// Model is a fitted linear execution-time predictor y ≈ β₀ + x·β over
// raw (unstandardized) feature vectors.
type Model struct {
	// Intercept is β₀.
	Intercept float64
	// Coef are per-feature coefficients in raw feature space.
	Coef []float64
}

// Predict evaluates the model on a raw feature vector. It sits on the
// per-decision path, so it must stay allocation-free.
//
//dvfs:hotpath
func (m *Model) Predict(x []float64) float64 {
	return m.Intercept + Dot(m.Coef, x)
}

// PredictAll evaluates the model on each row of X.
func (m *Model) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// Selected returns the indices of features with non-zero coefficients —
// the features the prediction slice must still compute.
func (m *Model) Selected() []int {
	var sel []int
	for j, c := range m.Coef {
		if c != 0 {
			sel = append(sel, j)
		}
	}
	return sel
}

// NumSelected returns the count of non-zero coefficients.
func (m *Model) NumSelected() int { return len(m.Selected()) }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Options configures the asymmetric Lasso fit. Zero values select the
// defaults noted on each field.
type Options struct {
	// Alpha is the under-prediction penalty weight α (≥1). The paper
	// finds α=100 a good balance (§5.4). Default 100.
	Alpha float64
	// Gamma is the L1 feature-selection weight γ. It is scaled by
	// n·std(y) internally so a given Gamma behaves consistently across
	// workloads. Default 1e-3.
	Gamma float64
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 100
	}
	if o.Alpha < 1 {
		o.Alpha = 1
	}
	if o.Gamma == 0 {
		o.Gamma = 1e-3
	}
	return o
}

// Fit solves the paper's objective
//
//	min_β ‖pos(Xβ−y)‖² + α‖neg(Xβ−y)‖² + γ‖β‖₁
//
// exactly (see solve) over standardized features, with γ = Gamma·n·std(y)
// and an intercept that is neither standardized nor penalized, and
// returns the model mapped back to raw feature space.
func Fit(X [][]float64, y []float64, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	if !(opts.Gamma > 0) {
		return nil, fmt.Errorf("regress: Gamma %g is not positive", opts.Gamma)
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("regress: ragged feature row %d", i)
		}
	}
	mean, scale := columnStats(X)
	yMean, yStd := meanOf(y), math.Sqrt(variance(y))
	m := &Model{Intercept: yMean, Coef: make([]float64, d)}
	if yStd == 0 {
		// The intercept alone fits a constant target exactly.
		return m, nil
	}

	// Solve in units where the features and the target have zero mean
	// and unit variance. γ = Gamma·n·std(y) becomes Gamma·n there: the
	// smooth-loss gradient of a standardized column at β=0 is
	// ≈ 2n·corr·std(y), so γ is expressed in those units.
	p := &lasso{n: n, k: d + 1, z: make([]float64, n*(d+1)), y: make([]float64, n),
		alpha: opts.Alpha, gamma: opts.Gamma * float64(n)}
	for i, row := range X {
		zi := p.z[i*p.k : (i+1)*p.k]
		zi[0] = 1
		for j, v := range row {
			zi[j+1] = (v - mean[j]) / scale[j]
		}
		p.y[i] = (y[i] - yMean) / yStd
	}
	theta := p.solve()

	// Map back to raw feature space:
	// y = ȳ + std(y)·(θ₀ + Σ θ_j (x_j − mean_j)/scale_j).
	m.Intercept += yStd * theta[0]
	for j := 0; j < d; j++ {
		b := yStd * theta[j+1]
		m.Coef[j] = b / scale[j]
		m.Intercept -= b * mean[j] / scale[j]
	}
	return m, nil
}

func columnStats(X [][]float64) (mean, scale []float64) {
	n, d := len(X), len(X[0])
	mean, scale = make([]float64, d), make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - mean[j]
			scale[j] += dv * dv
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / float64(n))
		if scale[j] == 0 {
			scale[j] = 1 // constant column: its standardized values are all 0
		}
	}
	return mean, scale
}

func meanOf(y []float64) float64 {
	s := 0.0
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}

func variance(y []float64) float64 {
	m := meanOf(y)
	s := 0.0
	for _, v := range y {
		s += (v - m) * (v - m)
	}
	return s / float64(len(y))
}
