package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// HintsRow compares the automatic control-flow-only controller with
// one that also receives the programmer's hint features (§3.5) on a
// benchmark whose cost has a value-dependent component.
type HintsRow struct {
	Benchmark string
	// Energy normalized to the performance governor.
	BaseEnergyPct, HintEnergyPct float64
	BaseMissPct, HintMissPct     float64
	// Mean absolute prediction error over the run [ms].
	BaseMAEms, HintMAEms float64
}

// RunHints evaluates hint features on the three benchmarks whose
// execution time has a component no control-flow feature can see
// (ldecode's residual coefficients, pocketsphinx's spectral energy,
// rijndael's plaintext structure).
func (s *Suite) RunHints() ([]HintsRow, error) {
	var rows []HintsRow
	for _, name := range []string{"ldecode", "pocketsphinx", "rijndael"} {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		perf, err := s.runOne("performance", w, sim.Config{})
		if err != nil {
			return nil, err
		}
		ctrls, err := s.buildEach(w, 2, func(i int, c *core.Config) { c.UseHints = i == 1 })
		if err != nil {
			return nil, err
		}
		base, hinted := ctrls[0], ctrls[1]
		rBase, err := sim.Run(w, base, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rHint, err := sim.Run(w, hinted, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rows = append(rows, HintsRow{
			Benchmark:     name,
			BaseEnergyPct: 100 * rBase.EnergyJ / perf.EnergyJ,
			HintEnergyPct: 100 * rHint.EnergyJ / perf.EnergyJ,
			BaseMissPct:   100 * rBase.MissRate(),
			HintMissPct:   100 * rHint.MissRate(),
			BaseMAEms:     meanAbsErrMS(rBase),
			HintMAEms:     meanAbsErrMS(rHint),
		})
	}
	return rows, nil
}

func meanAbsErrMS(r *sim.Result) float64 {
	sum, n := 0.0, 0
	for _, rec := range r.Records {
		if math.IsNaN(rec.PredictedExecSec) {
			continue
		}
		sum += math.Abs(rec.PredictedExecSec-rec.ExecSec) * 1e3
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// OverheadCapPoint is one predictor-time cap (§3.5's overhead-aware
// feature selection) evaluated on pocketsphinx, the benchmark with by
// far the costliest slice (Fig 17).
type OverheadCapPoint struct {
	// CapMS is the configured limit (0 = uncapped).
	CapMS float64
	// PredictorMS is the measured average predictor time.
	PredictorMS float64
	// Features is the number of feature sites the slice computes.
	Features  int
	EnergyPct float64
	MissPct   float64
}

// RunOverheadCap sweeps the predictor-time cap for pocketsphinx.
func (s *Suite) RunOverheadCap() ([]OverheadCapPoint, error) {
	w, err := workload.ByName("pocketsphinx")
	if err != nil {
		return nil, err
	}
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	capsMS := []float64{0, 20, 5, 1}
	ctrls, err := s.buildEach(w, len(capsMS), func(i int, c *core.Config) { c.MaxPredictorSec = capsMS[i] * 1e-3 })
	if err != nil {
		return nil, err
	}
	var pts []OverheadCapPoint
	for i, ctrl := range ctrls {
		r, err := sim.Run(w, ctrl, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		pts = append(pts, OverheadCapPoint{
			CapMS:       capsMS[i],
			PredictorMS: r.MeanPredictorSec() * 1e3,
			Features:    len(ctrl.Slice.NeededFIDs),
			EnergyPct:   100 * r.EnergyJ / perf.EnergyJ,
			MissPct:     100 * r.MissRate(),
		})
	}
	return pts, nil
}

// QuadraticRow compares the paper's linear model with a quadratic
// extension (§3.5). The paper: "Higher-order or non-polynomial models
// may provide better accuracy ... we saw relatively little gain to be
// had from improved prediction" — this experiment re-tests that claim.
type QuadraticRow struct {
	Benchmark                      string
	LinearMAEms, QuadMAEms         float64
	LinearEnergyPct, QuadEnergyPct float64
	LinearMissPct, QuadMissPct     float64
}

// RunQuadratic evaluates quadratic feature expansion on three
// benchmarks spanning linear (sha), mildly nonlinear (ldecode), and
// dispatch-driven (uzbl) time structure.
func (s *Suite) RunQuadratic() ([]QuadraticRow, error) {
	var rows []QuadraticRow
	for _, name := range []string{"sha", "ldecode", "uzbl"} {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		perf, err := s.runOne("performance", w, sim.Config{})
		if err != nil {
			return nil, err
		}
		ctrls, err := s.buildEach(w, 2, func(i int, c *core.Config) { c.Quadratic = i == 1 })
		if err != nil {
			return nil, err
		}
		lin, quad := ctrls[0], ctrls[1]
		rLin, err := sim.Run(w, lin, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rQuad, err := sim.Run(w, quad, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuadraticRow{
			Benchmark:       name,
			LinearMAEms:     meanAbsErrMS(rLin),
			QuadMAEms:       meanAbsErrMS(rQuad),
			LinearEnergyPct: 100 * rLin.EnergyJ / perf.EnergyJ,
			QuadEnergyPct:   100 * rQuad.EnergyJ / perf.EnergyJ,
			LinearMissPct:   100 * rLin.MissRate(),
			QuadMissPct:     100 * rQuad.MissRate(),
		})
	}
	return rows, nil
}
