// Package regress implements the execution-time prediction model of
// paper §3.3, the asymmetric-penalty Lasso
//
//	min_β ‖pos(Xβ−y)‖² + α‖neg(Xβ−y)‖² + γ‖β‖₁
//
// solved exactly in pure Go: a Newton method on the residuals' sign
// pattern whose steps are L1-penalized least-squares problems, each
// solved by the Lasso homotopy on a triangular factor of its weighted
// Gram matrix. The asymmetric weight α>1 penalizes under-prediction
// (which causes deadline misses) harder than over-prediction (which
// merely wastes energy); the L1 term drives coefficients of unhelpful
// control-flow features to exactly zero so the program slicer can drop
// their computation.
package regress

import (
	"math"
	"slices"
)

const (
	// kktTol is the relative KKT residual (point.kkt) solve accepts.
	kktTol = 1e-9
	// maxPasses bounds solve's passes over the rows, backtracking
	// included. Every profile and property test needs at most 25; the
	// bound only stops a pathological input from running forever.
	maxPasses = 200
	// depTol is the QR diagonal entry, relative to its column's norm,
	// below which the column lies in the span of the ones before it.
	// Rounding leaves exactly dependent columns near 1e-15.
	depTol = 1e-10
	// tieTol is the relative distance in λ within which lassoPath
	// takes two path events as simultaneous.
	tieTol = 1e-12
)

// lasso is Fit's problem in standardized units: rows z_i = (1, x̃_i)
// with x̃ the standardized features, targets ỹ = (y−ȳ)/std(y), and
// γ̃ = Gamma·n. Its objective
//
//	F(θ) = Σ ℓ(z_i·θ − ỹ_i) + γ̃ Σ_{j≥1} |θ_j|,  ℓ(r) = w(r)·r²,
//
// with w(r) = 1 for r > 0 and α otherwise, is Fit's objective divided
// by std(y)²; θ₀ is the unpenalized intercept.
type lasso struct {
	n, k  int
	z     []float64 // n×k row-major; column 0 is the intercept's 1
	y     []float64
	alpha float64
	gamma float64
}

// point is θ with what one pass over the rows learns about it.
type point struct {
	theta []float64
	neg   []bool // residual ≤ 0: the row's loss weight is α
	obj   float64
	// kkt is the largest violation of F's optimality conditions — the
	// intercept's gradient, |g_j + γ̃·sign θ_j| for θ_j ≠ 0 and
	// max(0, |g_j| − γ̃) for θ_j = 0 — over γ̃ + Σ|ℓ′(r_i)|.
	kkt float64
}

// solve minimizes F. ℓ is piecewise quadratic, so with the residuals'
// sign pattern fixed F is an L1-penalized least-squares problem: at θ,
// F's second-order model. Each step factors the pattern's weighted
// Gram matrix in one pass over the rows, solves the penalized problem
// exactly on the factor (lassoPath) and evaluates the candidate in a
// second pass. The search ends at a point whose KKT residual is at
// most kktTol, or at a candidate that keeps the pattern it was solved
// under: that candidate minimizes F. A candidate that changes the
// pattern must lower F, else the step is halved towards θ (the model's
// minimizer is a descent direction for F, so some halving does) until
// maxPasses runs out.
func (p *lasso) solve() []float64 {
	cur := p.eval(make([]float64, p.k))
	R := make([]float64, (p.k+1)*(p.k+1))
	cand := make([]float64, p.k)
	for pass := 1; pass < maxPasses && cur.kkt > kktTol; {
		p.factor(cur.neg, R)
		full := lassoPath(R, p.k, p.gamma/2)
		next := p.eval(full)
		pass += 2
		if slices.Equal(next.neg, cur.neg) {
			return next.theta
		}
		for t := 0.5; next.obj >= cur.obj && pass < maxPasses; t /= 2 {
			for j := range cand {
				cand[j] = cur.theta[j] + t*(full[j]-cur.theta[j])
			}
			next = p.eval(cand)
			pass++
		}
		if next.obj < cur.obj {
			cur = next
		}
	}
	return cur.theta
}

// eval measures F and its KKT residual at θ in one pass over the rows.
func (p *lasso) eval(theta []float64) point {
	pt := point{theta: slices.Clone(theta), neg: make([]bool, p.n)}
	g := make([]float64, p.k)
	sumAbs := 0.0
	for i := 0; i < p.n; i++ {
		zi := p.z[i*p.k : (i+1)*p.k]
		r := Dot(zi, theta) - p.y[i]
		w := 1.0
		if r <= 0 {
			w = p.alpha
			pt.neg[i] = true
		}
		pt.obj += w * r * r
		dl := 2 * w * r // ℓ′(r)
		sumAbs += math.Abs(dl)
		for j, v := range zi {
			g[j] += dl * v
		}
	}
	viol := math.Abs(g[0])
	for j := 1; j < p.k; j++ {
		pt.obj += p.gamma * math.Abs(theta[j])
		v := math.Abs(g[j]) - p.gamma
		if theta[j] != 0 {
			v = math.Abs(g[j] + math.Copysign(p.gamma, theta[j]))
		}
		viol = math.Max(viol, v)
	}
	pt.kkt = viol / (p.gamma + sumAbs)
	return pt
}

// factor sets R ((k+1)×(k+1), upper triangular) to RᵀR =
// Σ w_i (z_i, ỹ_i)(z_i, ỹ_i)ᵀ for pattern neg's weights, folding each
// row in by Givens rotations as it is read. Σ w_i (z_i·θ − ỹ_i)² is
// then ‖Bθ − q‖² plus a constant, for B the leading k×k block and q
// the last column. Working on B, not on the Gram matrix BᵀB, keeps
// apart near-collinear columns that BᵀB rounds together.
func (p *lasso) factor(neg []bool, R []float64) {
	k1 := p.k + 1
	clear(R)
	row := make([]float64, k1)
	sa := math.Sqrt(p.alpha)
	for i := 0; i < p.n; i++ {
		sw := 1.0
		if neg[i] {
			sw = sa
		}
		for j, v := range p.z[i*p.k : (i+1)*p.k] {
			row[j] = sw * v
		}
		row[p.k] = sw * p.y[i]
		for j := 0; j < k1; j++ {
			if row[j] == 0 {
				continue
			}
			Rj := R[j*k1 : (j+1)*k1]
			h := math.Sqrt(Rj[j]*Rj[j] + row[j]*row[j])
			c, s := Rj[j]/h, row[j]/h
			Rj[j] = h
			for l := j + 1; l < k1; l++ {
				Rj[l], row[l] = c*Rj[l]+s*row[l], c*row[l]-s*Rj[l]
			}
		}
	}
}

// lassoPath returns the minimizer of ‖Bθ − q‖² + 2λ Σ_{j≥1} |θ_j| at
// λ = lam, for B and q as factor leaves them in R and θ₀ unpenalized.
//
// It follows the solution path (the Lasso homotopy) down from the λ at
// which every penalized coefficient is zero. On each segment the
// active set A and its signs s are fixed and θ_A = (B_AᵀB_A)⁻¹(B_Aᵀq −
// λs_A), solved exactly through a QR factorization of B_A; it ends
// where an inactive column's correlation ρ_j = B_jᵀ(q − Bθ) reaches ±λ
// (the column joins A) or an active coefficient reaches zero (it
// leaves). A joining column that lies in the span of A is passed over
// until A next shrinks: on the exact path its correlation only touches
// ±λ, as the active columns already represent it.
func lassoPath(R []float64, k int, lam float64) []float64 {
	k1 := k + 1
	// sign[j] is ±1 while column j ≥ 1 is in A, else 0.
	theta, sign, skip := make([]float64, k), make([]float64, k), make([]bool, k)
	active := []int{0}
	// On a segment θ_A(λ') = v − λ'u and ρ_j(λ') = B_jᵀres + λ'·B_jᵀw,
	// for the k-vectors res = q − B_A·v and w = B_A·u.
	qr := make([]float64, k*k)
	v, u := make([]float64, k), make([]float64, k)
	res, w := make([]float64, k), make([]float64, k)
	lambda := math.Inf(1)
	for step := 0; step < 20*k; step++ { // far above any path seen; ends a cycling one
		m := len(active)
		if !factorActive(R, k, active, qr, v) {
			break // A only grows by columns that passed this test
		}
		for i, a := range active {
			u[i] = sign[a]
		}
		triSolve(qr, k, m, u, true)
		triSolve(qr, k, m, u, false)
		triSolve(qr, k, m, v, false)
		for r := 0; r < k; r++ {
			res[r], w[r] = R[r*k1+k], 0
			for i, a := range active {
				res[r] -= R[r*k1+a] * v[i]
				w[r] += R[r*k1+a] * u[i]
			}
		}

		// The largest λ' ≤ λ at which an event happens. An event must
		// beat the best so far by more than tieTol, so of simultaneous
		// events the first scanned wins: leaving before joining, and
		// joining in column order — of duplicate columns, the first is
		// the one kept.
		next, join, drop, joinSign := lam, -1, -1, 0.0
		for i, a := range active {
			if at := math.Min(lambda, v[i]/u[i]); a != 0 && sign[a]*u[i] < 0 && at > next*(1+tieTol) {
				next, join, drop = at, -1, a
			}
		}
		for j := 1; j < k; j++ {
			if sign[j] != 0 || skip[j] {
				continue
			}
			rho, a := 0.0, 0.0
			for r := 0; r <= j; r++ { // B is upper triangular
				rho += R[r*k1+j] * res[r]
				a += R[r*k1+j] * w[r]
			}
			for _, s := range [2]float64{1, -1} {
				// s·ρ_j reaches λ' where λ'(1 − s·a) = s·ρ̂.
				if at := math.Min(lambda, s*rho/(1-s*a)); 1-s*a > 0 && at > next*(1+tieTol) {
					next, join, drop, joinSign = at, j, -1, s
				}
			}
		}
		lambda = next
		for i, a := range active {
			theta[a] = v[i] - lambda*u[i]
		}
		switch {
		case drop >= 0:
			theta[drop], sign[drop] = 0, 0
			active = slices.DeleteFunc(active, func(a int) bool { return a == drop })
			clear(skip)
		case join >= 0:
			if !factorActive(R, k, append(active, join), qr, v) {
				skip[join] = true
				continue
			}
			sign[join] = joinSign
			active = append(active, join)
		default:
			return theta // λ reached lam
		}
	}
	return theta
}

// factorActive copies the columns idx of B into qr (k×m column-major)
// and reduces them by Householder reflections to the m×m upper
// triangle T with TᵀT = B_idxᵀB_idx, reflecting q along into b. It
// reports false when a column's diagonal entry falls to depTol of the
// column's norm.
func factorActive(R []float64, k int, idx []int, qr, b []float64) bool {
	k1, m := k+1, len(idx)
	for r := 0; r < k; r++ {
		for i, a := range idx {
			qr[i*k+r] = R[r*k1+a]
		}
		b[r] = R[r*k1+k]
	}
	for i := 0; i < m; i++ {
		col := qr[i*k : (i+1)*k]
		tail := math.Sqrt(Dot(col[i:], col[i:]))
		if !(tail > depTol*math.Sqrt(Dot(col, col))) {
			return false
		}
		// I − 2hhᵀ/hᵀh for h = col[i:] − diag·e₁ maps col[i:] to diag·e₁.
		diag := -math.Copysign(tail, col[i])
		col[i] -= diag
		hh := Dot(col[i:], col[i:])
		for c := i + 1; c <= m; c++ {
			x := b
			if c < m {
				x = qr[c*k : (c+1)*k]
			}
			f := 2 * Dot(col[i:], x[i:k]) / hh
			for r := i; r < k; r++ {
				x[r] -= f * col[r]
			}
		}
		col[i] = diag
	}
	return true
}

// triSolve overwrites x[:m] with T⁻¹x, or T⁻ᵀx when transpose is set,
// for the upper triangle T (T_rc = qr[c·k+r]) that factorActive left.
func triSolve(qr []float64, k, m int, x []float64, transpose bool) {
	if transpose {
		for i := 0; i < m; i++ {
			for p := 0; p < i; p++ {
				x[i] -= qr[i*k+p] * x[p]
			}
			x[i] /= qr[i*k+i]
		}
		return
	}
	for i := m - 1; i >= 0; i-- {
		for p := i + 1; p < m; p++ {
			x[i] -= qr[p*k+i] * x[p]
		}
		x[i] /= qr[i*k+i]
	}
}
