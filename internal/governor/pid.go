package governor

import (
	"math"

	"repro/internal/dvfs"
	"repro/internal/platform"
)

// PID is the reactive deadline-aware baseline (§5.1, after Gu &
// Chakraborty): it predicts the next job's execution time from the
// history of past execution times with a PID control law, then selects
// the lowest frequency that meets the budget. Because the estimate
// trails the actual job-to-job variation (Fig 3), it either misses
// deadlines on upward spikes or wastes energy on downward ones.
type PID struct {
	Base
	Plat *platform.Platform
	// Switch is the 95th-percentile switch-time table used when
	// choosing levels; may be nil to ignore switch overhead.
	Switch *platform.SwitchTable
	// Kp, Ki, Kd are the control gains ("trained offline ... optimized
	// to reduce deadline misses"); zero values select tuned defaults.
	Kp, Ki, Kd float64
	// MemFraction is the workload's average memory-time share of job
	// execution (ρ = Tmem/t), obtained from offline profiling; it lets
	// the controller translate execution times across frequencies.
	MemFraction float64
	// Margin inflates the estimate like the predictive controller's
	// margin; zero selects 0.15.
	Margin float64

	// Controller state.
	estFmaxSec  float64 // estimated next job time at fmax
	integral    float64
	prevErr     float64
	initialized bool
	lastLevel   platform.Level
	lastPredict float64 // estimate used for the last decision, at the chosen level
}

// Name implements Governor.
func (*PID) Name() string { return "pid" }

func (g *PID) gains() (kp, ki, kd float64) {
	kp, ki, kd = g.Kp, g.Ki, g.Kd
	if kp == 0 {
		kp = 0.5
	}
	if ki == 0 {
		ki = 0.04
	}
	if kd == 0 {
		kd = 0.1
	}
	return kp, ki, kd
}

// JobStart implements Governor: pick the cheapest level whose
// model-translated estimate meets the remaining budget.
func (g *PID) JobStart(job *Job, cur platform.Level) Decision {
	if !g.initialized {
		// Cold start: be conservative until feedback arrives.
		g.lastLevel = g.Plat.MaxLevel()
		g.lastPredict = math.NaN()
		return Decision{Target: g.lastLevel, PredictedExecSec: math.NaN()}
	}
	margin := g.Margin
	if margin == 0 {
		margin = 0.15
	}
	est := g.estFmaxSec * (1 + margin)
	// Translate the fmax estimate into (Tmem, Ndep) using the profiled
	// memory fraction, then pick the minimal level.
	tmem := est * g.MemFraction
	ndep := (est - tmem) * g.Plat.MaxLevel().EffFreqHz()
	tp := dvfs.TwoPoint{Ndep: ndep, TmemSec: tmem}
	sel := &dvfs.Selector{Plat: g.Plat, Switch: g.Switch}
	target := sel.PickFromModel(cur, tp, job.RemainingBudgetSec)
	g.lastLevel = target
	g.lastPredict = tp.TimeAt(target.EffFreqHz())
	return Decision{Target: target, PredictedExecSec: g.lastPredict}
}

// JobEnd implements Governor: fold the observed execution time back
// into the fmax-equivalent estimate with the PID law.
func (g *PID) JobEnd(_ *Job, out Outcome) {
	actualFmax := g.toFmax(out.ExecSec, g.lastLevel)
	if !g.initialized {
		g.estFmaxSec = actualFmax
		g.initialized = true
		return
	}
	err := actualFmax - g.estFmaxSec
	kp, ki, kd := g.gains()
	g.integral += err
	g.estFmaxSec += kp*err + ki*g.integral + kd*(err-g.prevErr)
	g.prevErr = err
	if g.estFmaxSec < 0 {
		g.estFmaxSec = 0
	}
}

// toFmax translates a time measured at level l into its fmax
// equivalent using the profiled memory fraction.
func (g *PID) toFmax(t float64, l platform.Level) float64 {
	rho := g.MemFraction
	return t*rho + t*(1-rho)*l.EffFreqHz()/g.Plat.MaxLevel().EffFreqHz()
}
