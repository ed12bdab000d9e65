package governor

import (
	"math"

	"repro/internal/dvfs"
	"repro/internal/platform"
)

// MovingAverage is the frame-based reactive baseline of the paper's
// related work (§6.1, after Choi et al.): it predicts the next job's
// execution time as the moving average of the last W jobs and selects
// the lowest frequency meeting the budget. Like the PID controller it
// cannot react to job-to-job input changes — it is strictly smoother,
// so it lags spikes even more.
type MovingAverage struct {
	Base
	Plat   *platform.Platform
	Switch *platform.SwitchTable
	// Window is the averaging length W; zero selects 8.
	Window int
	// MemFraction is the profiled memory share (as for PID).
	MemFraction float64
	// Margin inflates the estimate; zero selects 0.10.
	Margin float64

	histFmax  []float64
	lastLevel platform.Level
}

// Name implements Governor.
func (*MovingAverage) Name() string { return "movingavg" }

// JobStart implements Governor.
func (g *MovingAverage) JobStart(job *Job, cur platform.Level) Decision {
	if len(g.histFmax) == 0 {
		g.lastLevel = g.Plat.MaxLevel()
		return Decision{Target: g.lastLevel, PredictedExecSec: math.NaN()}
	}
	sum := 0.0
	for _, v := range g.histFmax {
		sum += v
	}
	margin := g.Margin
	if margin == 0 {
		margin = 0.10
	}
	est := sum / float64(len(g.histFmax)) * (1 + margin)
	tmem := est * g.MemFraction
	ndep := (est - tmem) * g.Plat.MaxLevel().EffFreqHz()
	tp := dvfs.TwoPoint{Ndep: ndep, TmemSec: tmem}
	sel := &dvfs.Selector{Plat: g.Plat, Switch: g.Switch}
	target := sel.PickFromModel(cur, tp, job.RemainingBudgetSec)
	g.lastLevel = target
	return Decision{Target: target, PredictedExecSec: tp.TimeAt(target.EffFreqHz())}
}

// JobEnd implements Governor.
func (g *MovingAverage) JobEnd(_ *Job, out Outcome) {
	rho := g.MemFraction
	fmax := g.Plat.MaxLevel().EffFreqHz()
	atFmax := out.ExecSec*rho + out.ExecSec*(1-rho)*g.lastLevel.EffFreqHz()/fmax
	w := g.Window
	if w <= 0 {
		w = 8
	}
	g.histFmax = append(g.histFmax, atFmax)
	if len(g.histFmax) > w {
		g.histFmax = g.histFmax[len(g.histFmax)-w:]
	}
}
