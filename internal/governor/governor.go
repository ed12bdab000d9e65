// Package governor implements the DVFS controllers the paper evaluates
// (§5.1): the Linux performance and interactive governors, a PID-based
// deadline controller, and an oracle, plus the Governor interface the
// prediction-based controller (built in internal/core) plugs into.
package governor

import (
	"math"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/taskir"
)

// Job carries everything a controller may observe about a job before
// it runs. Governors must treat Params and Globals as read-only.
type Job struct {
	// Index is the job's sequence number within the run.
	Index int
	// Params are the job's input values.
	Params map[string]int64
	// Globals is the live program state at job start.
	Globals map[string]int64
	// ReleaseSec and DeadlineSec are absolute times; RemainingBudgetSec
	// is DeadlineSec minus the job's actual start time (less than the
	// full budget when the previous job overran its period).
	ReleaseSec, DeadlineSec, RemainingBudgetSec float64
	// PeekWork returns the job's true work without executing it (it
	// interprets the task against isolated state). Only the oracle
	// controller may call it — it stands in for the paper's "recorded
	// job times from a previous run with the same inputs" (§5.3).
	PeekWork func() taskir.Work
}

// Decision is a controller's job-start output.
type Decision struct {
	// Target is the level to run the job at.
	Target platform.Level
	// PredictorSec is time spent computing the decision before the job
	// (the prediction slice's execution time); it is consumed from the
	// job's budget at the current level.
	PredictorSec float64
	// PredictedExecSec is the controller's expectation of the job's
	// execution time at Target; NaN when the controller has none.
	PredictedExecSec float64
}

// Outcome is what the simulator measured for one finished job: the
// ground truth a decision is judged by (§5's energy and deadline
// results). sim.JobRecord embeds it.
type Outcome struct {
	// StartSec is when the job started, on the simulated clock.
	StartSec float64
	// FromLevelIdx is the level the platform was at when the job
	// started (the switch source).
	FromLevelIdx int
	// PredictorSec is the predictor time on the job's timeline, before
	// the switch: zero when the configuration made the predictor free
	// or it ran on a helper core (sim.Pipelined and sim.Parallel), whose
	// energy the run's breakdown still charges.
	PredictorSec float64
	// SwitchSec is the measured DVFS transition time, including
	// mid-job transitions forced by sampling governors.
	SwitchSec float64
	// ExecSec is the job's pure execution time at speed (predictor and
	// switch overhead excluded).
	ExecSec float64
	// Missed reports that the job ended after its deadline on the
	// simulated wall clock.
	Missed bool
}

// Complete writes the outcome into e, the decision event of the job it
// measured: the job's start time, from-level, charged predictor time,
// measured switch time, execution time and deadline miss, and the
// signed residual when e carries a prediction. Every completed
// decision event in the repository is completed here, so each field
// has one definition. The three durations are the job's phases on the
// simulated clock; Complete writes no span ledger, which is for
// host-timed (served) decisions only.
func (o Outcome) Complete(e *obs.DecisionEvent) {
	e.TimeSec = o.StartSec
	e.FromLevel = o.FromLevelIdx
	e.PredictorSec = o.PredictorSec
	e.MeasSwitchSec = o.SwitchSec
	e.Done = true
	e.ActualExecSec = o.ExecSec
	e.Missed = o.Missed
	if e.Predicted {
		e.ResidualSec = o.ExecSec - e.PredictedExecSec
	}
}

// Governor is a DVFS controller under simulation.
type Governor interface {
	// Name identifies the controller in results ("performance", ...).
	Name() string
	// JobStart is invoked when a job begins; cur is the current level.
	JobStart(job *Job, cur platform.Level) Decision
	// JobEnd reports what the simulator measured for the job once it
	// finished. Feedback governors learn from out.ExecSec, the
	// portion at the target level.
	JobEnd(job *Job, out Outcome)
	// SampleInterval returns the utilization sampling period for
	// load-driven governors, or 0 for job-triggered governors.
	SampleInterval() float64
	// Sample is invoked every SampleInterval with the CPU utilization
	// of the elapsed window; it returns the level to switch to.
	Sample(util float64, cur platform.Level) platform.Level
}

// Base provides no-op hooks for job-triggered governors.
type Base struct{}

// JobEnd implements Governor with no feedback.
func (Base) JobEnd(*Job, Outcome) {}

// SampleInterval implements Governor with no sampling.
func (Base) SampleInterval() float64 { return 0 }

// Sample implements Governor; it never changes the level.
func (Base) Sample(_ float64, cur platform.Level) platform.Level { return cur }

// Performance always runs at maximum frequency — the paper's energy
// baseline (energy results are normalized to it).
type Performance struct {
	Base
	Plat *platform.Platform
}

// Name implements Governor.
func (*Performance) Name() string { return "performance" }

// JobStart implements Governor.
func (g *Performance) JobStart(_ *Job, _ platform.Level) Decision {
	return Decision{Target: g.Plat.MaxLevel(), PredictedExecSec: math.NaN()}
}

// Powersave always runs at minimum frequency.
type Powersave struct {
	Base
	Plat *platform.Platform
}

// Name implements Governor.
func (*Powersave) Name() string { return "powersave" }

// JobStart implements Governor.
func (g *Powersave) JobStart(_ *Job, _ platform.Level) Decision {
	return Decision{Target: g.Plat.MinLevel(), PredictedExecSec: math.NaN()}
}

// Fixed pins execution at one level — used to characterize the
// time–frequency relationship (Fig 9).
type Fixed struct {
	Base
	Level platform.Level
}

// Name implements Governor.
func (*Fixed) Name() string { return "fixed" }

// JobStart implements Governor.
func (g *Fixed) JobStart(_ *Job, _ platform.Level) Decision {
	return Decision{Target: g.Level, PredictedExecSec: math.NaN()}
}
