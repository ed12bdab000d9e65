package experiments

import (
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablations beyond the paper's own sweeps, covering the design choices
// DESIGN.md calls out: the 10% prediction margin, the 95th-percentile
// switch-time table (vs means), and Lasso-driven slice reduction
// (vs computing every feature).

// MarginPoint is one setting of the prediction-margin ablation.
type MarginPoint struct {
	Margin    float64
	EnergyPct float64
	MissPct   float64
}

// RunAblationMargin sweeps the safety margin for ldecode. The paper
// (§3.4): "A higher margin can decrease deadline misses while a lower
// margin can improve the energy savings."
func (s *Suite) RunAblationMargin() ([]MarginPoint, error) {
	w := workload.LDecode()
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	margins := []float64{-1, 0.05, 0.10, 0.20, 0.30} // -1 encodes 0
	// core treats a negative margin as exactly zero.
	ctrls, err := s.buildEach(w, len(margins), func(i int, c *core.Config) { c.Margin = margins[i] })
	if err != nil {
		return nil, err
	}
	var pts []MarginPoint
	for i, ctrl := range ctrls {
		r, err := sim.Run(w, ctrl, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		pts = append(pts, MarginPoint{
			Margin:    max(margins[i], 0),
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	return pts, nil
}

// SwitchTableResult compares conservative (p95) against mean
// switch-time estimates in the frequency selector.
type SwitchTableResult struct {
	Table     string // "p95" or "mean"
	EnergyPct float64
	MissPct   float64
}

// RunAblationSwitchTable evaluates ldecode with the selector fed mean
// switch times instead of the paper's 95th percentile.
func (s *Suite) RunAblationSwitchTable() ([]SwitchTableResult, error) {
	w := workload.LDecode()
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	tables := []struct {
		name string
		t    *platform.SwitchTable
	}{
		{"p95", s.Switch},
		{"mean", platform.MeanSwitchTable(s.Plat)},
	}
	ctrls, err := s.buildEach(w, len(tables), func(i int, c *core.Config) { c.Switch = tables[i].t })
	if err != nil {
		return nil, err
	}
	var out []SwitchTableResult
	for i, ctrl := range ctrls {
		r, err := sim.Run(w, ctrl, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		out = append(out, SwitchTableResult{
			Table:     tables[i].name,
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	return out, nil
}

// SliceAblationRow compares the Lasso-reduced slice against computing
// every instrumented feature.
type SliceAblationRow struct {
	Benchmark string
	// Statement counts of the two slices.
	LassoStmts, FullStmts int
	// Average predictor time per job under each slice [ms].
	LassoPredMS, FullPredMS float64
}

// RunAblationSlice measures what Lasso feature selection buys in
// predictor overhead across all benchmarks.
func (s *Suite) RunAblationSlice() ([]SliceAblationRow, error) {
	var rows []SliceAblationRow
	for _, w := range workload.All() {
		ctrls, err := s.buildEach(w, 2, func(i int, c *core.Config) { c.KeepAllFeatures = i == 1 })
		if err != nil {
			return nil, err
		}
		lasso, full := ctrls[0], ctrls[1]
		rl, err := sim.Run(w, lasso, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rf, err := sim.Run(w, full, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SliceAblationRow{
			Benchmark:   w.Name,
			LassoStmts:  lasso.Slice.SliceStmts,
			FullStmts:   full.Slice.SliceStmts,
			LassoPredMS: rl.MeanPredictorSec() * 1e3,
			FullPredMS:  rf.MeanPredictorSec() * 1e3,
		})
	}
	return rows, nil
}
