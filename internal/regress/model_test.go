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
	m, err := FitOLS(X, y)
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

func TestFitOLSErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := FitOLS([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitOLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestFitSymmetricMatchesOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synth(rng, 400, 0.5)
	ols, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	// α=1, tiny γ: the asymmetric Lasso degenerates to least squares.
	m, err := Fit(X, y, Options{Alpha: 1, Gamma: 1e-9, MaxIter: 20000, Tol: 1e-12})
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
	alpha, gamma := 50.0, 0.0
	ols, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(X, y, Options{Alpha: alpha, Gamma: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if Objective(m, X, y, alpha, gamma) > Objective(ols, X, y, alpha, gamma) {
		t.Errorf("asymmetric fit objective %g worse than OLS %g",
			Objective(m, X, y, alpha, gamma), Objective(ols, X, y, alpha, gamma))
	}
}

func TestFitConstantColumn(t *testing.T) {
	X := [][]float64{{1, 5}, {1, 7}, {1, 9}, {1, 11}}
	y := []float64{10, 14, 18, 22}
	m, err := Fit(X, y, Options{Alpha: 1, Gamma: 1e-6, MaxIter: 20000})
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

func TestMatrixOps(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	m.MulVec([]float64{1, 1}, dst)
	want := []float64{3, 7, 11}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", dst, want)
		}
	}
	dt := make([]float64, 2)
	m.TMulVec([]float64{1, 0, 1}, dt)
	wantT := []float64{6, 8}
	for i := range wantT {
		if dt[i] != wantT[i] {
			t.Fatalf("TMulVec = %v, want %v", dt, wantT)
		}
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged FromRows should fail")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty FromRows should fail")
	}
}

func TestSpecNorm2(t *testing.T) {
	// Diagonal matrix: σmax² = max diag².
	m, _ := FromRows([][]float64{{3, 0}, {0, 2}})
	got := specNorm2(m, 50)
	if math.Abs(got-9) > 1e-6 {
		t.Errorf("specNorm2 = %g, want 9", got)
	}
}

func TestSolveSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := solveSPD(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=8 → x=1.75, y=1.5
	if math.Abs(x[0]-1.75) > 1e-9 || math.Abs(x[1]-1.5) > 1e-9 {
		t.Errorf("solveSPD = %v", x)
	}
	bad, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := solveSPD(bad, []float64{1, 1}); err == nil {
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
		m, err := Fit(X, y, Options{Alpha: 10, Gamma: 1e-3, MaxIter: 500})
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
