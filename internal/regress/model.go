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

// Options configures the asymmetric Lasso fit. Zero values select the
// defaults noted on each field.
type Options struct {
	// Alpha is the under-prediction penalty weight α (≥1). The paper
	// finds α=100 a good balance (§5.4). Default 100.
	Alpha float64
	// Gamma is the L1 feature-selection weight γ. It is scaled by
	// n·Var(y) internally so a given Gamma behaves consistently across
	// workloads. Default 1e-3.
	Gamma float64
	// MaxIter bounds FISTA iterations. Default 4000.
	MaxIter int
	// Tol stops iteration when the largest coefficient change (in
	// standardized space) falls below it. Default 1e-9.
	Tol float64
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
	if o.MaxIter == 0 {
		o.MaxIter = 4000
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	return o
}

// Fit solves the paper's objective
//
//	min_β ‖pos(Xβ−y)‖² + α‖neg(Xβ−y)‖² + γ‖β‖₁
//
// with FISTA over standardized features (the intercept is neither
// standardized nor penalized) and returns the model mapped back to raw
// feature space.
func Fit(X [][]float64, y []float64, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	d := len(X[0])

	mean, scale := columnStats(X)
	Xs := NewMatrix(n, d)
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("regress: ragged feature row %d", i)
		}
		for j, v := range row {
			Xs.Set(i, j, (v-mean[j])/scale[j])
		}
	}

	// Scale γ so it is comparable across workloads regardless of the
	// magnitude of y (milliseconds vs seconds) and the sample count:
	// the smooth-loss gradient of a standardized column at β=0 is
	// ≈ 2n·corr·std(y), so γ is expressed in those units.
	yStd := math.Sqrt(variance(y))
	if yStd == 0 {
		yStd = 1e-12
	}
	gamma := opts.Gamma * float64(n) * yStd

	// Lipschitz constant of the smooth part: the gradient is
	// 2·max(1,α)·AᵀA-Lipschitz for the augmented design A = [1 Xs],
	// and σmax(A) ≤ σmax(Xs) + √n.
	sn := specNorm2(Xs, 30)
	sA := math.Sqrt(sn) + math.Sqrt(float64(n))
	L := 2 * math.Max(1, opts.Alpha) * sA * sA
	if L == 0 {
		L = 1
	}
	step := 1 / L

	beta := make([]float64, d) // standardized coefficients
	b0 := meanOf(y)            // intercept starts at the mean
	zeta := append([]float64(nil), beta...)
	z0 := b0
	tk := 1.0

	grad := make([]float64, d) // gradient wrt β

	for iter := 0; iter < opts.MaxIter; iter++ {
		// Gradient at the extrapolated point (zeta, z0), in one sweep
		// over the rows: each row's residual Xβ − y, its loss
		// derivative, and its share of grad. These are MulVec's, the
		// residual transform's and TMulVec's operations in their order,
		// so the result is bit-identical to three passes; one sweep
		// reads Xs once per iteration, and its time no longer depends
		// on where the linker places Fit (the two inlined passes ran
		// ~20 % slower when Fit started at 0 rather than 32 mod 64).
		clear(grad)
		g0 := 0.0
		for i := 0; i < n; i++ {
			row := Xs.Row(i)
			ri := 0.0
			for j, v := range row {
				ri += v * zeta[j]
			}
			ri += z0 - y[i]
			// d/dr of pos(r)² + α·neg(r)²:
			if ri > 0 {
				ri = 2 * ri
			} else {
				ri = 2 * opts.Alpha * ri
			}
			g0 += ri
			if ri == 0 {
				continue
			}
			for j, v := range row {
				grad[j] += v * ri
			}
		}

		// Proximal step with soft thresholding (not on the intercept).
		maxDelta := 0.0
		newB0 := z0 - step*g0
		if dlt := math.Abs(newB0 - b0); dlt > maxDelta {
			maxDelta = dlt
		}
		newBeta := make([]float64, d)
		th := step * gamma
		for j := 0; j < d; j++ {
			v := zeta[j] - step*grad[j]
			switch {
			case v > th:
				v -= th
			case v < -th:
				v += th
			default:
				v = 0
			}
			newBeta[j] = v
			if dlt := math.Abs(v - beta[j]); dlt > maxDelta {
				maxDelta = dlt
			}
		}

		// FISTA momentum.
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		mom := (tk - 1) / tNext
		for j := 0; j < d; j++ {
			zeta[j] = newBeta[j] + mom*(newBeta[j]-beta[j])
		}
		z0 = newB0 + mom*(newB0-b0)
		tk = tNext
		beta, b0 = newBeta, newB0

		if maxDelta < opts.Tol {
			break
		}
	}

	// Map standardized coefficients back to raw feature space:
	// y = b0 + Σ β_j (x_j − mean_j)/scale_j.
	m := &Model{Intercept: b0, Coef: make([]float64, d)}
	for j := 0; j < d; j++ {
		if beta[j] == 0 {
			continue
		}
		m.Coef[j] = beta[j] / scale[j]
		m.Intercept -= beta[j] * mean[j] / scale[j]
	}
	return m, nil
}

// FitOLS fits ordinary least squares via normal equations with a tiny
// ridge term for numerical stability. It serves as the symmetric,
// no-selection baseline the paper contrasts with (§3.3).
func FitOLS(X [][]float64, y []float64) (*Model, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	d := len(X[0])
	// Augmented design with intercept column.
	dd := d + 1
	ata := NewMatrix(dd, dd)
	atb := make([]float64, dd)
	row := make([]float64, dd)
	for i, x := range X {
		if len(x) != d {
			return nil, fmt.Errorf("regress: ragged feature row %d", i)
		}
		row[0] = 1
		copy(row[1:], x)
		for a := 0; a < dd; a++ {
			atb[a] += row[a] * y[i]
			for b := a; b < dd; b++ {
				ata.Set(a, b, ata.At(a, b)+row[a]*row[b])
			}
		}
	}
	// Mirror the upper triangle and add ridge.
	ridge := 1e-8 * float64(n)
	for a := 0; a < dd; a++ {
		ata.Set(a, a, ata.At(a, a)+ridge)
		for b := a + 1; b < dd; b++ {
			ata.Set(b, a, ata.At(a, b))
		}
	}
	sol, err := solveSPD(ata, atb)
	if err != nil {
		return nil, err
	}
	return &Model{Intercept: sol[0], Coef: sol[1:]}, nil
}

func columnStats(X [][]float64) (mean, scale []float64) {
	n := len(X)
	d := len(X[0])
	mean = make([]float64, d)
	scale = make([]float64, d)
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
			scale[j] = 1 // constant column: coefficient will be zeroed
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
