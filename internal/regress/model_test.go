package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synth generates y = 2 + 3·x0 + 0.5·x2 + noise with x1 irrelevant.
func synth(rng *rand.Rand, n int, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		X[i] = x
		y[i] = 2 + 3*x[0] + 0.5*x[2] + noise*rng.NormFloat64()
	}
	return X, y
}

func TestFitOLSRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := synth(rng, 500, 0.01)
	m, err := fitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-2) > 0.05 {
		t.Errorf("intercept = %g, want ≈2", m.Intercept)
	}
	want := []float64{3, 0, 0.5}
	for j, w := range want {
		if math.Abs(m.Coef[j]-w) > 0.05 {
			t.Errorf("coef[%d] = %g, want ≈%g", j, m.Coef[j], w)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1, 2}, Options{Gamma: -1}); err == nil {
		t.Error("negative Gamma should fail")
	}
}

func TestFitSymmetricMatchesOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synth(rng, 400, 0.5)
	ols, err := fitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	// α=1, tiny γ: the asymmetric Lasso degenerates to least squares.
	m, err := Fit(X, y, Options{Alpha: 1, Gamma: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coef {
		if math.Abs(m.Coef[j]-ols.Coef[j]) > 0.02 {
			t.Errorf("coef[%d] = %g, OLS %g", j, m.Coef[j], ols.Coef[j])
		}
	}
	if math.Abs(m.Intercept-ols.Intercept) > 0.1 {
		t.Errorf("intercept = %g, OLS %g", m.Intercept, ols.Intercept)
	}
}

func TestFitAsymmetrySkewsOver(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := synth(rng, 600, 1.0)
	sym, err := Fit(X, y, Options{Alpha: 1, Gamma: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	asym, err := Fit(X, y, Options{Alpha: 100, Gamma: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sStats := ComputeErrorStats(Errors(sym.PredictAll(X), y))
	aStats := ComputeErrorStats(Errors(asym.PredictAll(X), y))
	if aStats.UnderCount >= sStats.UnderCount {
		t.Errorf("α=100 under-predictions (%d) not fewer than α=1 (%d)",
			aStats.UnderCount, sStats.UnderCount)
	}
	if aStats.Mean <= sStats.Mean {
		t.Errorf("α=100 mean error %g not skewed above α=1 mean %g", aStats.Mean, sStats.Mean)
	}
}

func TestFitLassoSelectsFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := synth(rng, 600, 0.1)
	m, err := Fit(X, y, Options{Alpha: 1, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if m.Coef[1] != 0 {
		t.Errorf("irrelevant feature not zeroed: coef=%g (selected=%v)", m.Coef[1], m.Selected())
	}
	if m.Coef[0] == 0 || m.Coef[2] == 0 {
		t.Errorf("relevant features zeroed: %v", m.Coef)
	}
	if m.NumSelected() != 2 {
		t.Errorf("NumSelected = %d, want 2", m.NumSelected())
	}
}

func TestFitLargerGammaSelectsFewer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, 8)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		X[i] = x
		// Coefficients of decaying importance.
		y[i] = 5*x[0] + 2*x[1] + 0.5*x[2] + 0.1*x[3] + 0.3*rng.NormFloat64()
	}
	prev := 9
	for _, gamma := range []float64{1e-6, 1e-3, 0.05, 0.5} {
		m, err := Fit(X, y, Options{Alpha: 1, Gamma: gamma})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumSelected() > prev {
			t.Errorf("γ=%g selected %d features, more than smaller γ (%d)", gamma, m.NumSelected(), prev)
		}
		prev = m.NumSelected()
	}
	if prev >= 4 {
		t.Errorf("largest γ still selects %d features", prev)
	}
}

func TestFitObjectiveNotWorseThanOLS(t *testing.T) {
	// On the asymmetric objective, the asymmetric fit must beat OLS.
	rng := rand.New(rand.NewSource(6))
	X, y := synth(rng, 300, 2.0)
	opts := Options{Alpha: 50, Gamma: 1e-9}
	ols, err := fitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(X, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	fitObj, _ := objectiveKKT(m, X, y, opts)
	olsObj, _ := objectiveKKT(ols, X, y, opts)
	if fitObj > olsObj {
		t.Errorf("asymmetric fit objective %g worse than OLS %g", fitObj, olsObj)
	}
}

func TestFitConstantColumn(t *testing.T) {
	X := [][]float64{{1, 5}, {1, 7}, {1, 9}, {1, 11}}
	y := []float64{10, 14, 18, 22}
	m, err := Fit(X, y, Options{Alpha: 1, Gamma: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if math.Abs(m.Predict(x)-y[i]) > 0.1 {
			t.Errorf("predict(%v) = %g, want %g", x, m.Predict(x), y[i])
		}
	}
}

func TestFitHandlesConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 5, 5}
	m, err := Fit(X, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{2})-5) > 0.2 {
		t.Errorf("constant target: predict = %g, want 5", m.Predict([]float64{2}))
	}
}

func TestSpecNorm2(t *testing.T) {
	// Diagonal matrix: σmax² = max diag².
	got := specNorm2([][]float64{{3, 0}, {0, 2}}, 50)
	if math.Abs(got-9) > 1e-6 {
		t.Errorf("specNorm2 = %g, want 9", got)
	}
}

func TestSolveSPD(t *testing.T) {
	x, err := solveSPD([]float64{4, 2, 2, 3}, 2, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=8 → x=1.75, y=1.5
	if math.Abs(x[0]-1.75) > 1e-9 || math.Abs(x[1]-1.5) > 1e-9 {
		t.Errorf("solveSPD = %v", x)
	}
	if _, err := solveSPD([]float64{1, 2, 2, 1}, 2, []float64{1, 1}); err == nil { // indefinite
		t.Error("indefinite matrix should fail")
	}
}

func TestErrorStats(t *testing.T) {
	st := ComputeErrorStats([]float64{1, -2, 3})
	if st.N != 3 || st.UnderCount != 1 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.Mean-2.0/3) > 1e-12 {
		t.Errorf("mean = %g", st.Mean)
	}
	if st.MaxOver != 3 || st.MaxUnder != -2 {
		t.Errorf("max over/under = %g/%g", st.MaxOver, st.MaxUnder)
	}
	if math.Abs(st.MAE-2) > 1e-12 {
		t.Errorf("mae = %g", st.MAE)
	}
	empty := ComputeErrorStats(nil)
	if empty.N != 0 {
		t.Errorf("empty stats n = %d", empty.N)
	}
	if len(st.String()) == 0 {
		t.Error("String empty")
	}
}

// Property: Fit never produces NaN/Inf coefficients on well-formed
// random data.
func TestFitFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		X, y := synth(rng, 50, 1.0)
		m, err := Fit(X, y, Options{Alpha: 10, Gamma: 1e-3})
		if err != nil {
			return false
		}
		if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
			return false
		}
		for _, c := range m.Coef {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// checkExact asserts that m, fitted to (X, y) under opts, meets the
// KKT conditions of Fit's objective to kktTol and that its objective
// is no worse than that of the FISTA reference with its iteration cap
// raised from 4,000 to 200,000 (up to a 1e-12 relative rounding slack:
// where FISTA converges, both evaluate the same minimum).
func checkExact(t *testing.T, m *Model, X [][]float64, y []float64, opts Options) {
	t.Helper()
	obj, kkt := objectiveKKT(m, X, y, opts)
	if !(kkt <= kktTol) {
		t.Errorf("α=%g γ=%g: KKT residual %.3g > %g", opts.Alpha, opts.Gamma, kkt, kktTol)
	}
	ref, _ := objectiveKKT(refFISTA(X, y, opts, 200000, 1e-9), X, y, opts)
	if obj > ref*(1+1e-12) {
		t.Errorf("α=%g γ=%g: objective %.12g above FISTA's %.12g", opts.Alpha, opts.Gamma, obj, ref)
	}
}

// TestFitExactOnRandomDesigns checks the solver on designs built to
// break it: rank-deficient Gram matrices (constant, duplicate and
// linearly dependent columns, more columns than rows), near-collinear
// columns whose reduced systems are barely positive definite, and a
// constant target.
func TestFitExactOnRandomDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	design := func(n, d int, col func(x []float64)) ([][]float64, []float64) {
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			x := make([]float64, d)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			col(x)
			X[i] = x
			y[i] = 3 + 2*x[0] - x[1] + 0.5*x[d-1] + rng.NormFloat64()
		}
		return X, y
	}
	cases := []struct {
		name string
		n, d int
		col  func(x []float64)
	}{
		{"independent", 80, 5, func(x []float64) {}},
		{"constant column", 80, 5, func(x []float64) { x[2] = 4 }},
		{"duplicate columns", 80, 6, func(x []float64) {
			x[2] = x[0]       // exact copy
			x[3] = 2*x[1] + 7 // affine copy: equal once standardized
			x[4] = -x[0]      // negated copy
		}},
		{"dependent column", 80, 5, func(x []float64) { x[3] = x[0] + x[1] }},
		{"near-collinear columns", 60, 5, func(x []float64) {
			x[2] = x[0] + 1e-7*rng.NormFloat64()
			x[3] = x[1] + 1e-4*rng.NormFloat64()
		}},
		{"more columns than rows", 6, 9, func(x []float64) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := design(tc.n, tc.d, tc.col)
			for _, alpha := range []float64{1, 100, 1000} {
				for _, gamma := range []float64{1e-3, 0.05} {
					opts := Options{Alpha: alpha, Gamma: gamma}
					m, err := Fit(X, y, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkExact(t, m, X, y, opts)
				}
			}
		})
	}
	t.Run("constant target", func(t *testing.T) {
		X, _ := design(40, 4, func(x []float64) {})
		y := make([]float64, len(X))
		for i := range y {
			y[i] = 0.1
		}
		for _, alpha := range []float64{1, 100, 1000} {
			opts := Options{Alpha: alpha}
			m, err := Fit(X, y, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, m, X, y, opts)
			if m.NumSelected() != 0 {
				t.Errorf("α=%g: constant target selected features %v", alpha, m.Selected())
			}
		}
	})
}
