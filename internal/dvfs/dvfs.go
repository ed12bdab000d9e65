// Package dvfs implements the paper's DVFS performance model and
// frequency selection rule (§3.4).
//
// Given a job's predicted execution times at the minimum and maximum
// frequencies, the classical linear model t = Tmem + Ndependent/f is
// solved for its two unknowns:
//
//	Ndependent = fmin·fmax·(tfmin − tfmax) / (fmax − fmin)
//	Tmem       = (fmax·tfmax − fmin·tfmin) / (fmax − fmin)
//
// and the smallest discrete frequency that still meets the (effective)
// time budget is selected. Predicted times carry a safety margin
// (10 % in the paper), and the effective budget subtracts predictor
// and estimated DVFS-switch overheads.
package dvfs

import (
	"math"

	"repro/internal/platform"
)

// TwoPoint is the solved per-job performance model.
type TwoPoint struct {
	// Ndep is frequency-dependent work in cycles.
	Ndep float64
	// TmemSec is frequency-independent memory time in seconds.
	TmemSec float64
}

// Solve recovers (Ndep, Tmem) from execution times predicted at two
// frequencies. Noisy predictions can produce slightly negative
// components; they are clamped at zero so downstream frequency math
// stays well-defined.
func Solve(tfmin, tfmax, fmin, fmax float64) TwoPoint {
	if fmax <= fmin {
		// Degenerate platform: treat everything as CPU-bound at fmin.
		return TwoPoint{Ndep: tfmin * fmin}
	}
	ndep := fmin * fmax * (tfmin - tfmax) / (fmax - fmin)
	tmem := (fmax*tfmax - fmin*tfmin) / (fmax - fmin)
	if ndep < 0 {
		ndep = 0
	}
	if tmem < 0 {
		tmem = 0
	}
	return TwoPoint{Ndep: ndep, TmemSec: tmem}
}

// TimeAt evaluates the model at frequency f.
func (tp TwoPoint) TimeAt(f float64) float64 {
	return tp.TmemSec + tp.Ndep/f
}

// Selector chooses discrete DVFS levels for jobs.
type Selector struct {
	// Plat supplies the discrete level grid.
	Plat *platform.Platform
	// Switch estimates transition latencies (typically the
	// 95th-percentile table of Fig 11). May be nil to ignore switch
	// overhead (the paper's overhead-removed analysis, Fig 18).
	Switch *platform.SwitchTable
	// Margin inflates predicted times to absorb same-input execution
	// time variation; the paper uses 0.10.
	Margin float64
	// EnergyAware picks the minimum-ESTIMATED-ENERGY feasible level
	// instead of the paper's minimum-frequency rule. On a homogeneous
	// grid the two coincide (within a cluster, slower always means
	// less energy per job), but on a heterogeneous grid a slow point
	// of the big cluster can be feasible yet burn more than a faster
	// point of the little cluster — §3.5's "alternate models ...
	// appropriate operating point for the mechanism of interest".
	EnergyAware bool
}

// Pick returns the feasible level for a job within budgetSec, starting
// from level cur: the lowest feasible frequency (the paper's rule), or
// the minimum-estimated-energy feasible level when EnergyAware is set.
// The per-level effective budget subtracts the estimated switch time
// from cur to the candidate level (no switch, no cost). When no level
// meets the budget the maximum level is returned — the best the
// platform can do.
//
//dvfs:hotpath
func (s *Selector) Pick(cur platform.Level, tfmin, tfmax, budgetSec float64) platform.Level {
	m := 1 + s.Margin
	tp := Solve(tfmin*m, tfmax*m,
		s.Plat.MinLevel().EffFreqHz(), s.Plat.MaxLevel().EffFreqHz())
	return s.PickFromModel(cur, tp, budgetSec)
}

// PickFromModel selects a level directly from a solved TwoPoint model
// (already margin-adjusted); the oracle controller uses it with exact
// per-job work.
func (s *Selector) PickFromModel(cur platform.Level, tp TwoPoint, budgetSec float64) platform.Level {
	best := -1
	bestEnergy := math.Inf(1)
	for _, l := range s.Plat.Levels {
		eff := budgetSec
		if s.Switch != nil {
			eff -= s.Switch.Lookup(cur.Index, l.Index)
		}
		t := tp.TimeAt(l.EffFreqHz())
		if t > eff {
			continue
		}
		if !s.EnergyAware {
			return l // lowest feasible frequency: paper §3.4
		}
		// Estimated job energy: active power while running plus idle
		// power for the remaining budget.
		e := s.Plat.ActivePower(l)*t + s.Plat.IdlePower(l)*math.Max(0, budgetSec-t)
		if e < bestEnergy {
			best, bestEnergy = l.Index, e
		}
	}
	if best < 0 {
		return s.Plat.MaxLevel()
	}
	return s.Plat.Levels[best]
}
