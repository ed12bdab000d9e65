package regress

import (
	"fmt"
	"math"
)

// This file holds the references the solver is checked against: the
// objective and KKT residual computed from the raw data, the FISTA
// solver Fit used before it solved the problem exactly, and ordinary
// least squares.

// objectiveKKT evaluates Fit's objective at m from the raw data —
// ‖pos(r)‖² + α‖neg(r)‖² + γ Σ|β̃_j| with r = m(X) − y, β̃_j =
// Coef_j·scale_j the standardized coefficients and γ = Gamma·n·std(y)
// — and its relative KKT residual: the largest violation of the
// optimality conditions in standardized coordinates (the intercept's
// gradient, |g_j + γ·sign β̃_j| for β̃_j ≠ 0, max(0, |g_j| − γ) for
// β̃_j = 0) divided by γ + Σ|ℓ′(r_i)|.
func objectiveKKT(m *Model, X [][]float64, y []float64, opts Options) (obj, kkt float64) {
	opts = opts.withDefaults()
	n, d := len(X), len(X[0])
	mean, scale := columnStats(X)
	gamma := opts.Gamma * float64(n) * math.Sqrt(variance(y))
	g := make([]float64, d)
	g0, sumAbs := 0.0, 0.0
	for i, x := range X {
		r := m.Predict(x) - y[i]
		w := 1.0
		if r <= 0 {
			w = opts.Alpha
		}
		obj += w * r * r
		dl := 2 * w * r
		g0 += dl
		sumAbs += math.Abs(dl)
		for j, v := range x {
			g[j] += dl * (v - mean[j]) / scale[j]
		}
	}
	viol := math.Abs(g0)
	for j, c := range m.Coef {
		b := c * scale[j]
		obj += gamma * math.Abs(b)
		switch {
		case b > 0:
			viol = math.Max(viol, math.Abs(g[j]+gamma))
		case b < 0:
			viol = math.Max(viol, math.Abs(g[j]-gamma))
		default:
			viol = math.Max(viol, math.Abs(g[j])-gamma)
		}
	}
	if gamma+sumAbs == 0 {
		return obj, viol
	}
	return obj, viol / (gamma + sumAbs)
}

// refFISTA is the accelerated proximal-gradient solver Fit ran before
// it solved the problem exactly: FISTA over standardized features with
// step 1/L from a power-iteration Lipschitz bound, stopped after
// maxIter iterations or once no coefficient moves by tol.
func refFISTA(X [][]float64, y []float64, opts Options, maxIter int, tol float64) *Model {
	opts = opts.withDefaults()
	n, d := len(X), len(X[0])
	mean, scale := columnStats(X)
	Xs := make([][]float64, n)
	for i, row := range X {
		Xs[i] = make([]float64, d)
		for j, v := range row {
			Xs[i][j] = (v - mean[j]) / scale[j]
		}
	}
	yStd := math.Sqrt(variance(y))
	if yStd == 0 {
		yStd = 1e-12
	}
	gamma := opts.Gamma * float64(n) * yStd

	// The gradient is 2·max(1,α)·AᵀA-Lipschitz for the augmented design
	// A = [1 Xs], and σmax(A) ≤ σmax(Xs) + √n.
	sA := math.Sqrt(specNorm2(Xs, 30)) + math.Sqrt(float64(n))
	L := 2 * math.Max(1, opts.Alpha) * sA * sA
	if L == 0 {
		L = 1
	}
	step := 1 / L

	beta := make([]float64, d)
	b0 := meanOf(y)
	zeta := append([]float64(nil), beta...)
	z0 := b0
	tk := 1.0
	grad := make([]float64, d)
	for iter := 0; iter < maxIter; iter++ {
		clear(grad)
		g0 := 0.0
		for i, row := range Xs {
			ri := 0.0
			for j, v := range row {
				ri += v * zeta[j]
			}
			ri += z0 - y[i]
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

		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		mom := (tk - 1) / tNext
		for j := 0; j < d; j++ {
			zeta[j] = newBeta[j] + mom*(newBeta[j]-beta[j])
		}
		z0 = newB0 + mom*(newB0-b0)
		tk = tNext
		beta, b0 = newBeta, newB0
		if maxDelta < tol {
			break
		}
	}

	m := &Model{Intercept: b0, Coef: make([]float64, d)}
	for j := 0; j < d; j++ {
		if beta[j] == 0 {
			continue
		}
		m.Coef[j] = beta[j] / scale[j]
		m.Intercept -= beta[j] * mean[j] / scale[j]
	}
	return m
}

// specNorm2 estimates σmax(M)² (the largest eigenvalue of MᵀM) of the
// rows M by power iteration.
func specNorm2(M [][]float64, iters int) float64 {
	cols := len(M[0])
	v := make([]float64, cols)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(cols))
	}
	mv := make([]float64, len(M))
	mtv := make([]float64, cols)
	lambda := 0.0
	for k := 0; k < iters; k++ {
		for i, row := range M {
			mv[i] = Dot(row, v)
		}
		clear(mtv)
		for i, row := range M {
			if mv[i] == 0 {
				continue
			}
			for j, x := range row {
				mtv[j] += x * mv[i]
			}
		}
		norm := math.Sqrt(Dot(mtv, mtv))
		if norm == 0 {
			return 0
		}
		for j := range v {
			v[j] = mtv[j] / norm
		}
		lambda = norm
	}
	return lambda
}

// fitOLS fits ordinary least squares via the normal equations with a
// tiny ridge term: the symmetric, no-selection baseline the paper
// contrasts with (§3.3).
func fitOLS(X [][]float64, y []float64) (*Model, error) {
	n, d := len(X), len(X[0])
	dd := d + 1
	ata := make([]float64, dd*dd)
	atb := make([]float64, dd)
	row := make([]float64, dd)
	for i, x := range X {
		row[0] = 1
		copy(row[1:], x)
		for a := 0; a < dd; a++ {
			atb[a] += row[a] * y[i]
			for b := a; b < dd; b++ {
				ata[a*dd+b] += row[a] * row[b]
			}
		}
	}
	ridge := 1e-8 * float64(n)
	for a := 0; a < dd; a++ {
		ata[a*dd+a] += ridge
		for b := a + 1; b < dd; b++ {
			ata[b*dd+a] = ata[a*dd+b]
		}
	}
	sol, err := solveSPD(ata, dd, atb)
	if err != nil {
		return nil, err
	}
	return &Model{Intercept: sol[0], Coef: sol[1:]}, nil
}

// solveSPD solves A·x = b for the n×n symmetric positive-definite A
// (row-major) by Cholesky decomposition; A is modified in place.
func solveSPD(a []float64, n int, b []float64) ([]float64, error) {
	at := func(i, j int) float64 { return a[i*n+j] }
	for j := 0; j < n; j++ {
		d := at(j, j)
		for k := 0; k < j; k++ {
			d -= at(j, k) * at(j, k)
		}
		if d <= 0 {
			return nil, fmt.Errorf("regress: matrix not positive definite at pivot %d", j)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := at(i, j)
			for k := 0; k < j; k++ {
				s -= at(i, k) * at(j, k)
			}
			a[i*n+j] = s / d
		}
	}
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= at(i, k) * z[k]
		}
		z[i] = s / at(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= at(k, i) * x[k]
		}
		x[i] = s / at(i, i)
	}
	return x, nil
}
