package regress_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/regress"
	"repro/internal/workload"
)

// profile builds w's controller on the named platform and returns its
// profiling data: the rows every Fit in core.Build trains on.
func profile(tb testing.TB, w *workload.Workload, plat string) *core.Profile {
	tb.Helper()
	p, err := platform.ByName(plat)
	if err != nil {
		tb.Fatal(err)
	}
	ctrl, err := core.Build(w, core.Config{Plat: p, ProfileSeed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return ctrl.Prof
}

// TestFitExactOnProfiles checks Fit on the data it trains on in
// production: every workload's profile on a7 and x86, both targets, at
// α ∈ {1, 100, 1000}. Each fit must meet the KKT conditions of its
// objective to 1e-9, relative, and reach an objective no worse than
// the FISTA reference with its iteration cap raised from 4,000 to
// 200,000 (up to a 1e-12 relative rounding slack).
func TestFitExactOnProfiles(t *testing.T) {
	for _, plat := range []string{"a7", "x86"} {
		for _, w := range workload.All() {
			t.Run(plat+"/"+w.Name, func(t *testing.T) {
				prof := profile(t, w, plat)
				for _, alpha := range []float64{1, 100, 1000} {
					for _, target := range []struct {
						name string
						y    []float64
					}{{"fmin", prof.TimesMin}, {"fmax", prof.TimesMax}} {
						opts := regress.Options{Alpha: alpha}
						m, err := regress.Fit(prof.X, target.y, opts)
						if err != nil {
							t.Fatal(err)
						}
						obj, kkt := regress.ObjectiveKKT(m, prof.X, target.y, opts)
						if !(kkt <= 1e-9) {
							t.Errorf("%s α=%g: KKT residual %.3g > 1e-9", target.name, alpha, kkt)
						}
						ref, _ := regress.ObjectiveKKT(regress.RefFISTA(prof.X, target.y, opts, 200000, 1e-9), prof.X, target.y, opts)
						if obj > ref*(1+1e-12) {
							t.Errorf("%s α=%g: objective %.12g above FISTA's %.12g", target.name, alpha, obj, ref)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFit times one Fit per workload profile on a7 at α = 100,
// the fmax model core.Build trains.
func BenchmarkFit(b *testing.B) {
	for _, w := range workload.All() {
		prof := profile(b, w, "a7")
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := regress.Fit(prof.X, prof.TimesMax, regress.Options{Alpha: 100}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/fit")
		})
	}
}
