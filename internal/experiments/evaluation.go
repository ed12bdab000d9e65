package experiments

import (
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig15Row holds one benchmark's normalized energy and deadline-miss
// percentages for the four governors (Fig 15). Energy is normalized to
// the performance governor (= 100).
type Fig15Row struct {
	Benchmark string
	// EnergyPct and MissPct are keyed by governor name.
	EnergyPct map[string]float64
	MissPct   map[string]float64
}

// RunFig15 evaluates all benchmarks under all four governors at the
// paper's budgets (50 ms; 4 s for pocketsphinx).
func (s *Suite) RunFig15() ([]Fig15Row, error) {
	var rows []Fig15Row
	for _, w := range workload.All() {
		row, err := s.fig15Row(w, sim.Config{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	rows = append(rows, averageFig15(rows))
	return rows, nil
}

func (s *Suite) fig15Row(w *workload.Workload, cfg sim.Config) (*Fig15Row, error) {
	row := &Fig15Row{
		Benchmark: w.Name,
		EnergyPct: map[string]float64{},
		MissPct:   map[string]float64{},
	}
	var perfEnergy float64
	for _, name := range GovernorNames {
		r, err := s.runOne(name, w, cfg)
		if err != nil {
			return nil, err
		}
		if name == "performance" {
			perfEnergy = r.EnergyJ
		}
		row.EnergyPct[name] = 100 * r.EnergyJ / perfEnergy
		row.MissPct[name] = 100 * r.MissRate()
	}
	return row, nil
}

func averageFig15(rows []Fig15Row) Fig15Row {
	avg := Fig15Row{
		Benchmark: "average",
		EnergyPct: map[string]float64{},
		MissPct:   map[string]float64{},
	}
	for _, name := range GovernorNames {
		for _, r := range rows {
			avg.EnergyPct[name] += r.EnergyPct[name]
			avg.MissPct[name] += r.MissPct[name]
		}
		avg.EnergyPct[name] /= float64(len(rows))
		avg.MissPct[name] /= float64(len(rows))
	}
	return avg
}

// Fig16Sweep holds one benchmark's budget sweep (Fig 16): energy and
// misses per governor at each normalized budget.
type Fig16Sweep struct {
	Benchmark string
	// NormBudgets are the swept multiples of the maximum fmax job time.
	NormBudgets []float64
	// EnergyPct[gov][i] corresponds to NormBudgets[i]; normalized to
	// the performance governor at the same budget.
	EnergyPct map[string][]float64
	MissPct   map[string][]float64
}

// RunFig16 sweeps the time budget from 0.6 to 1.4 of the maximum job
// time for each benchmark.
func (s *Suite) RunFig16(w *workload.Workload) (*Fig16Sweep, error) {
	maxT, err := s.maxJobTimeAtFmax(w)
	if err != nil {
		return nil, err
	}
	sweep := &Fig16Sweep{
		Benchmark: w.Name,
		EnergyPct: map[string][]float64{},
		MissPct:   map[string][]float64{},
	}
	for f := 0.6; f <= 1.401; f += 0.1 {
		sweep.NormBudgets = append(sweep.NormBudgets, f)
		budget := f * maxT
		var perfEnergy float64
		for _, name := range GovernorNames {
			r, err := s.runOne(name, w, sim.Config{BudgetSec: budget})
			if err != nil {
				return nil, err
			}
			if name == "performance" {
				perfEnergy = r.EnergyJ
			}
			sweep.EnergyPct[name] = append(sweep.EnergyPct[name], 100*r.EnergyJ/perfEnergy)
			sweep.MissPct[name] = append(sweep.MissPct[name], 100*r.MissRate())
		}
	}
	return sweep, nil
}

// Fig17Row reports the prediction controller's average overheads
// (Fig 17): predictor execution and DVFS switching time per job.
type Fig17Row struct {
	Benchmark           string
	PredictorMS, DVFSMS float64
}

// RunFig17 measures average predictor and switch times per benchmark.
func (s *Suite) RunFig17() ([]Fig17Row, error) {
	var rows []Fig17Row
	var sumP, sumD float64
	for _, w := range workload.All() {
		r, err := s.runOne("prediction", w, sim.Config{})
		if err != nil {
			return nil, err
		}
		row := Fig17Row{
			Benchmark:   w.Name,
			PredictorMS: r.MeanPredictorSec() * 1e3,
			DVFSMS:      r.MeanSwitchSec() * 1e3,
		}
		rows = append(rows, row)
		sumP += row.PredictorMS
		sumD += row.DVFSMS
	}
	n := float64(len(rows))
	rows = append(rows, Fig17Row{Benchmark: "average", PredictorMS: sumP / n, DVFSMS: sumD / n})
	return rows, nil
}

// Fig18Row compares the prediction controller against overhead-removed
// variants and the oracle (Fig 18), all normalized to the performance
// governor at the paper budget.
type Fig18Row struct {
	Benchmark string
	// Energy percentages; OraclePct is NaN for benchmarks the paper
	// excludes (uzbl, xpilot — non-deterministic job ordering).
	PredictionPct, NoDVFSPct, NoPredDVFSPct, OraclePct float64
}

// RunFig18 measures the overhead-removal ladder.
func (s *Suite) RunFig18() ([]Fig18Row, error) {
	var rows []Fig18Row
	for _, w := range workload.All() {
		perf, err := s.runOne("performance", w, sim.Config{})
		if err != nil {
			return nil, err
		}
		pred, err := s.runOne("prediction", w, sim.Config{})
		if err != nil {
			return nil, err
		}
		noDVFS, err := s.runOne("prediction", w, sim.Config{DisableSwitchLatency: true})
		if err != nil {
			return nil, err
		}
		noBoth, err := s.runOne("prediction", w, sim.Config{DisableSwitchLatency: true, DisablePredictorCost: true})
		if err != nil {
			return nil, err
		}
		row := Fig18Row{
			Benchmark:     w.Name,
			PredictionPct: 100 * pred.EnergyJ / perf.EnergyJ,
			NoDVFSPct:     100 * noDVFS.EnergyJ / perf.EnergyJ,
			NoPredDVFSPct: 100 * noBoth.EnergyJ / perf.EnergyJ,
			OraclePct:     math.NaN(),
		}
		if w.Name != "uzbl" && w.Name != "xpilot" {
			oracle, err := s.runOne("oracle", w, sim.Config{DisableSwitchLatency: true, DisablePredictorCost: true})
			if err != nil {
				return nil, err
			}
			row.OraclePct = 100 * oracle.EnergyJ / perf.EnergyJ
		}
		rows = append(rows, row)
	}
	// Average (oracle average over the six benchmarks that have one).
	avg := Fig18Row{Benchmark: "average"}
	oracleN := 0.0
	for _, r := range rows {
		avg.PredictionPct += r.PredictionPct
		avg.NoDVFSPct += r.NoDVFSPct
		avg.NoPredDVFSPct += r.NoPredDVFSPct
		if !math.IsNaN(r.OraclePct) {
			avg.OraclePct += r.OraclePct
			oracleN++
		}
	}
	n := float64(len(rows))
	avg.PredictionPct /= n
	avg.NoDVFSPct /= n
	avg.NoPredDVFSPct /= n
	avg.OraclePct /= oracleN
	rows = append(rows, avg)
	return rows, nil
}
