package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig19Row holds one benchmark's prediction-error box plot (Fig 19).
// Errors are predicted minus actual execution time in milliseconds;
// positive values are over-predictions.
type Fig19Row struct {
	Benchmark string
	Box       stats.BoxPlot
	MeanMS    float64
	NumOut    int
}

// RunFig19 collects prediction errors for the seven millisecond-scale
// benchmarks (the paper reports pocketsphinx's second-scale errors in
// text, not in the plot; RunFig19Pocketsphinx covers it).
func (s *Suite) RunFig19() ([]Fig19Row, error) {
	var rows []Fig19Row
	for _, w := range workload.All() {
		if w.Name == "pocketsphinx" {
			continue
		}
		row, err := s.fig19Row(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// RunFig19Pocketsphinx returns the speech recognizer's error summary,
// reported separately in the paper's text (§5.3).
func (s *Suite) RunFig19Pocketsphinx() (*Fig19Row, error) {
	return s.fig19Row(workload.PocketSphinx())
}

func (s *Suite) fig19Row(w *workload.Workload) (*Fig19Row, error) {
	r, err := s.runOne("prediction", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	var errs []float64
	for _, rec := range r.Records {
		if math.IsNaN(rec.PredictedExecSec) {
			continue
		}
		errs = append(errs, (rec.PredictedExecSec-rec.ExecSec)*1e3)
	}
	box := stats.ComputeBoxPlot(errs)
	return &Fig19Row{
		Benchmark: w.Name,
		Box:       box,
		MeanMS:    stats.Mean(errs),
		NumOut:    len(box.Outliers),
	}, nil
}

// Fig20Point is one α setting of the under-prediction trade-off sweep
// (Fig 20) for ldecode.
type Fig20Point struct {
	Alpha     float64
	EnergyPct float64
	MissPct   float64
}

// RunFig20 sweeps the under-prediction penalty weight α for ldecode,
// retraining the controller at each setting.
func (s *Suite) RunFig20() ([]Fig20Point, error) {
	w := workload.LDecode()
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	alphas := []float64{1, 10, 100, 1000}
	ctrls, err := s.buildEach(w, len(alphas), func(i int, c *core.Config) { c.Alpha = alphas[i] })
	if err != nil {
		return nil, err
	}
	var pts []Fig20Point
	for i, ctrl := range ctrls {
		r, err := sim.Run(w, ctrl, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig20Point{
			Alpha:     alphas[i],
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	return pts, nil
}

// Fig21Row compares all four governors with and without idling between
// jobs (Fig 21), normalized to performance WITHOUT idling.
type Fig21Row struct {
	Benchmark string
	// EnergyPct maps governor name → energy; IdleEnergyPct the same
	// with idling enabled.
	EnergyPct     map[string]float64
	IdleEnergyPct map[string]float64
}

// RunFig21 measures the idling study.
func (s *Suite) RunFig21() ([]Fig21Row, error) {
	var rows []Fig21Row
	for _, w := range workload.All() {
		row := Fig21Row{
			Benchmark:     w.Name,
			EnergyPct:     map[string]float64{},
			IdleEnergyPct: map[string]float64{},
		}
		var perfEnergy float64
		for _, name := range GovernorNames {
			r, err := s.runOne(name, w, sim.Config{})
			if err != nil {
				return nil, err
			}
			if name == "performance" {
				perfEnergy = r.EnergyJ
			}
			row.EnergyPct[name] = 100 * r.EnergyJ / perfEnergy
			ri, err := s.runOne(name, w, sim.Config{IdleBetweenJobs: true})
			if err != nil {
				return nil, err
			}
			row.IdleEnergyPct[name] = 100 * ri.EnergyJ / perfEnergy
		}
		rows = append(rows, row)
	}
	// Average row.
	avg := Fig21Row{Benchmark: "average", EnergyPct: map[string]float64{}, IdleEnergyPct: map[string]float64{}}
	for _, name := range GovernorNames {
		for _, r := range rows {
			avg.EnergyPct[name] += r.EnergyPct[name]
			avg.IdleEnergyPct[name] += r.IdleEnergyPct[name]
		}
		avg.EnergyPct[name] /= float64(len(rows))
		avg.IdleEnergyPct[name] /= float64(len(rows))
	}
	rows = append(rows, avg)
	return rows, nil
}

// XPlatRow compares the features selected for the ARM platform with
// those selected for an x86 platform (§4.2).
type XPlatRow struct {
	Benchmark   string
	ARMFeatures []string
	X86Features []string
	// Relation classifies the paper's three observed cases: "same",
	// "subset" (x86 ⊆ ARM), or "differs".
	Relation string
	// Jaccard is |∩| / |∪|.
	Jaccard float64
}

// RunXPlat retrains every benchmark's models on the x86 platform model
// and compares selected feature sets with the ARM ones.
func (s *Suite) RunXPlat() ([]XPlatRow, error) {
	x86 := newX86Suite(s.Seed)
	var rows []XPlatRow
	for _, w := range workload.All() {
		if err := TrainControllers(w, s, x86); err != nil {
			return nil, err
		}
		armSet := s.controllers[w.Name].SelectedFeatureNames()
		x86Set := x86.controllers[w.Name].SelectedFeatureNames()
		rows = append(rows, XPlatRow{
			Benchmark:   w.Name,
			ARMFeatures: armSet,
			X86Features: x86Set,
			Relation:    setRelation(armSet, x86Set),
			Jaccard:     jaccard(armSet, x86Set),
		})
	}
	return rows, nil
}

func setRelation(arm, x86 []string) string {
	a := toSet(arm)
	x := toSet(x86)
	if len(a) == len(x) && containsAll(a, x) {
		return "same"
	}
	if containsAll(a, x) {
		return "subset"
	}
	return "differs"
}

func toSet(xs []string) map[string]bool {
	m := map[string]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func containsAll(super, sub map[string]bool) bool {
	for k := range sub {
		if !super[k] {
			return false
		}
	}
	return true
}

func jaccard(a, b []string) float64 {
	sa, sb := toSet(a), toSet(b)
	inter := 0
	for k := range sa {
		if sb[k] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
