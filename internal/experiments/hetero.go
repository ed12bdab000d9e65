package experiments

import (
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// HeteroPoint compares the prediction controller on the A7-only
// platform against the heterogeneous big.LITTLE platform at one
// normalized budget. Energy is normalized to the A7 performance
// governor at the same budget, so values above 100 mean "spent more
// than the little core flat-out" — the price of making deadlines the
// little core cannot make.
type HeteroPoint struct {
	NormBudget               float64
	A7EnergyPct, A7MissPct   float64
	BigEnergyPct, BigMissPct float64
	// EAEnergyPct/EAMissPct use energy-aware level selection instead
	// of the paper's minimum-frequency rule, which is suboptimal
	// across cluster boundaries (a slow big-core point can be feasible
	// yet dearer than a faster little-core point).
	EAEnergyPct, EAMissPct float64
	// A15Share is the fraction of jobs the big.LITTLE controller ran
	// on the A15 cluster.
	A15Share float64
}

// RunHetero exercises §3.5's heterogeneous-cores extension on ldecode:
// below normalized budget 1.0 the A7 cannot make every deadline at any
// frequency, while the big.LITTLE operating-point grid lets the same
// unchanged prediction logic migrate heavy frames to the A15.
func (s *Suite) RunHetero() ([]HeteroPoint, error) {
	w := workload.LDecode()
	maxT, err := s.maxJobTimeAtFmax(w)
	if err != nil {
		return nil, err
	}
	bl := NewSuiteOn(platform.BigLITTLE(), s.Seed)
	// One profile trains the A7 controller, the big.LITTLE one and its
	// energy-aware variant.
	ea := bl.config()
	ea.EnergyAware = true
	ctrls, err := core.BuildEach(w, []core.Config{s.config(), bl.config(), ea})
	if err != nil {
		return nil, err
	}
	var pts []HeteroPoint
	for _, f := range []float64{0.5, 0.6, 0.8, 1.0, 1.2} {
		budget := f * maxT
		perf, err := s.runOne("performance", w, sim.Config{BudgetSec: budget})
		if err != nil {
			return nil, err
		}
		a7, err := sim.Run(w, ctrls[0], sim.Config{Plat: s.Plat, Seed: s.Seed + 7, BudgetSec: budget})
		if err != nil {
			return nil, err
		}
		big, err := sim.Run(w, ctrls[1], sim.Config{Plat: bl.Plat, Seed: s.Seed + 7, BudgetSec: budget})
		if err != nil {
			return nil, err
		}
		ea, err := sim.Run(w, ctrls[2], sim.Config{Plat: bl.Plat, Seed: s.Seed + 7, BudgetSec: budget})
		if err != nil {
			return nil, err
		}
		a15 := 0
		for _, rec := range big.Records {
			if bl.Plat.Levels[rec.LevelIdx].Cluster == "A15" {
				a15++
			}
		}
		pts = append(pts, HeteroPoint{
			NormBudget:   f,
			A7EnergyPct:  100 * a7.EnergyJ / perf.EnergyJ,
			A7MissPct:    100 * a7.MissRate(),
			BigEnergyPct: 100 * big.EnergyJ / perf.EnergyJ,
			BigMissPct:   100 * big.MissRate(),
			EAEnergyPct:  100 * ea.EnergyJ / perf.EnergyJ,
			EAMissPct:    100 * ea.MissRate(),
			A15Share:     float64(a15) / float64(len(big.Records)),
		})
	}
	return pts, nil
}
