package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/taskir"
)

const fmaxHz = 1.4e9 // ODROID-XU3 A7 max frequency

// jobTimesAtFmax runs n jobs and returns their execution times (ms) at
// maximum frequency with no run-to-run noise.
func jobTimesAtFmax(t *testing.T, w *Workload, n int, seed int64) []float64 {
	t.Helper()
	gen := w.NewGen(seed)
	globals := w.FreshGlobals()
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		env := taskir.NewEnv(globals)
		env.SetParams(gen.Next(i))
		work, err := taskir.Run(w.Prog, env, taskir.RunOptions{})
		if err != nil {
			t.Fatalf("%s job %d: %v", w.Name, i, err)
		}
		times = append(times, work.TimeAt(fmaxHz)*1e3)
	}
	return times
}

func TestProgramsValidate(t *testing.T) {
	for _, w := range All() {
		if err := w.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestAllHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %s", w.Name)
		}
		seen[w.Name] = true
		if w.DefaultBudgetSec <= 0 || w.EvalJobs <= 0 {
			t.Errorf("%s: missing budget/jobs", w.Name)
		}
	}
	if len(seen) != 8 {
		t.Errorf("have %d workloads, want 8", len(seen))
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("ldecode")
	if err != nil || w.Name != "ldecode" {
		t.Fatalf("ByName(ldecode) = %v, %v", w, err)
	}
	_, err = ByName("nosuch")
	const want = `workload: unknown benchmark "nosuch" (have: 2048, curseofwar, ldecode, pocketsphinx, rijndael, sha, uzbl, xpilot)`
	if err == nil || err.Error() != want {
		t.Fatalf("ByName(nosuch) error = %v, want %s", err, want)
	}
}

// ByName builds only the named workload; what it builds must be the
// program All builds under that name, and each call a fresh one.
func TestByNameMatchesAll(t *testing.T) {
	for _, want := range All() {
		w, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want.Name, err)
		}
		got, err := taskir.MarshalProgram(w.Prog)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := taskir.MarshalProgram(want.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(ref) {
			t.Errorf("%s: ByName's program differs from All's", want.Name)
		}
		again, _ := ByName(want.Name)
		if again == w || again.Prog == w.Prog {
			t.Errorf("%s: two ByName calls share a *Workload or *Program", want.Name)
		}
	}
}

// TestCalibrationTable2 verifies each model's min/avg/max job times at
// maximum frequency sit near the paper's Table 2. These are synthetic
// rebuilds, so tolerances are loose — what matters is that the
// magnitude and spread match, since those drive every downstream
// experiment.
func TestCalibrationTable2(t *testing.T) {
	for _, w := range All() {
		n := w.EvalJobs * 3
		times := jobTimesAtFmax(t, w, n, 12345)
		s := stats.Summarize(times)
		t.Logf("%-12s min=%.3g avg=%.3g max=%.3g ms (paper %.3g / %.3g / %.3g)",
			w.Name, s.Min, s.Mean, s.Max, w.RefMinMS, w.RefAvgMS, w.RefMaxMS)
		checkNear(t, w.Name+" avg", s.Mean, w.RefAvgMS, 0.20)
		checkNear(t, w.Name+" max", s.Max, w.RefMaxMS, 0.25)
		// Minimum times are sensitive to the rarest easy jobs; allow a
		// factor of two.
		if s.Min > w.RefMinMS*2 || s.Min < w.RefMinMS/2 {
			t.Errorf("%s min = %.3g ms, want within 2x of %.3g", w.Name, s.Min, w.RefMinMS)
		}
	}
}

func checkNear(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.4g, want %.4g ± %.0f%%", what, got, want, tol*100)
	}
}

// Job times must vary meaningfully from job to job — the premise of
// the paper (§2.2). A coefficient of variation under 5% would make
// per-job DVFS pointless.
func TestJobTimeVariation(t *testing.T) {
	for _, w := range All() {
		times := jobTimesAtFmax(t, w, w.EvalJobs, 7)
		s := stats.Summarize(times)
		if s.Std/s.Mean < 0.05 {
			t.Errorf("%s: CV = %.3f, want ≥ 0.05", w.Name, s.Std/s.Mean)
		}
	}
}

// Input generation must be deterministic in the seed.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range All() {
		a := w.NewGen(99)
		b := w.NewGen(99)
		for i := 0; i < 50; i++ {
			pa, pb := a.Next(i), b.Next(i)
			if len(pa) != len(pb) {
				t.Fatalf("%s: param sets differ at job %d", w.Name, i)
			}
			for k, v := range pa {
				if pb[k] != v {
					t.Fatalf("%s: param %s differs at job %d: %d vs %d", w.Name, k, i, v, pb[k])
				}
			}
		}
	}
}

// Generators must only produce declared params.
func TestGeneratorParamsDeclared(t *testing.T) {
	for _, w := range All() {
		declared := map[string]bool{}
		for _, p := range w.Prog.Params {
			declared[p] = true
		}
		gen := w.NewGen(3)
		for i := 0; i < 20; i++ {
			for k := range gen.Next(i) {
				if !declared[k] {
					t.Errorf("%s: generator emits undeclared param %q", w.Name, k)
				}
			}
		}
	}
}

// FreshGlobals must give independent copies.
func TestFreshGlobalsIsolated(t *testing.T) {
	w := Game2048()
	a := w.FreshGlobals()
	b := w.FreshGlobals()
	a["score"] = 999
	if b["score"] == 999 {
		t.Error("FreshGlobals shares state")
	}
	if w.Prog.Globals["score"] == 999 {
		t.Error("FreshGlobals exposes program initial state")
	}
}

func TestWave(t *testing.T) {
	for i := 0; i < 200; i++ {
		v := wave(i, 50, 10, 90)
		if v < 10 || v > 90 {
			t.Fatalf("wave out of range: %d", v)
		}
	}
	// Must touch both halves of the range.
	lo, hi := false, false
	for i := 0; i < 50; i++ {
		v := wave(i, 50, 0, 100)
		if v < 30 {
			lo = true
		}
		if v > 70 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Error("wave does not oscillate")
	}
}

func TestClampI64(t *testing.T) {
	if clampI64(5, 1, 10) != 5 || clampI64(-1, 1, 10) != 1 || clampI64(20, 1, 10) != 10 {
		t.Error("clampI64 wrong")
	}
}

// lag1 computes the lag-1 autocorrelation of a job-time series.
func lag1(xs []float64) float64 {
	n := len(xs)
	mean, v := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	if v == 0 {
		return 0
	}
	c := 0.0
	for i := 1; i < n; i++ {
		c += (xs[i] - mean) * (xs[i-1] - mean)
	}
	return c / v
}

// The reactive baselines (PID, moving average) only make sense against
// autocorrelated request streams — which real interactive applications
// produce. The data-driven benchmarks must show strong lag-1
// autocorrelation; the dispatch-driven browser keeps bursty runs.
func TestJobTimesAutocorrelated(t *testing.T) {
	for _, c := range []struct {
		name string
		min  float64
	}{
		{"sha", 0.5},      // size random walk
		{"rijndael", 0.5}, // session drift
		{"ldecode", 0.2},  // GOP pattern lowers it, scene drift raises it
	} {
		w, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		times := jobTimesAtFmax(t, w, w.EvalJobs, 3)
		if r := lag1(times); r < c.min {
			t.Errorf("%s: lag-1 autocorrelation %.2f below %.2f", c.name, r, c.min)
		}
	}
}

// uzbl's command stream must be bursty: the chance of repeating the
// previous command class is far above its stationary share.
func TestUzblCommandBurstiness(t *testing.T) {
	w := Uzbl()
	gen := w.NewGen(5)
	prev := int64(-1)
	repeats, total := 0, 0
	counts := map[int64]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		cmd := gen.Next(i)["cmd"]
		counts[cmd]++
		if prev >= 0 {
			total++
			if cmd == prev {
				repeats++
			}
		}
		prev = cmd
	}
	repeatRate := float64(repeats) / float64(total)
	// Stationary repeat probability = Σ p_i².
	iid := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		iid += p * p
	}
	if repeatRate < iid+0.15 {
		t.Errorf("repeat rate %.2f not clearly above iid level %.2f", repeatRate, iid)
	}
}

// curseofwar's poll ticks are periodic (every fifth tick), which a
// reactive controller in principle could learn — ours don't, but the
// structure must be there.
func TestCurseOfWarPollPattern(t *testing.T) {
	w := CurseOfWar()
	gen := w.NewGen(8)
	for i := 0; i < 100; i++ {
		sim := gen.Next(i)["simTick"]
		if i%5 == 4 && sim != 0 {
			t.Fatalf("tick %d should be a poll tick", i)
		}
		if i%5 != 4 && sim != 1 {
			t.Fatalf("tick %d should be a sim tick", i)
		}
	}
}
