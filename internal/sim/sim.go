// Package sim executes a workload under a DVFS governor on a modeled
// platform and accounts time, energy, and deadline misses — the role
// the instrumented ODROID-XU3 board plays in the paper's evaluation
// (§5.1).
//
// Jobs are released periodically (period = time budget, as for a game
// or decoder frame loop). For each job the governor makes a job-start
// decision (possibly paying predictor time and a DVFS switch), the job
// then executes under the classical time-scaling model, and
// load-driven governors additionally re-evaluate on a fixed sampling
// interval — including in the middle of a job, stalling it through any
// resulting transition, exactly as a kernel governor interrupts a
// running task. Energy integrates active, switching, and idle power
// over the whole run, mirroring the board's power-sensor measurement.
package sim

import (
	"math"
	"math/rand"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	// Plat is the hardware model; nil selects ODROIDXU3A7.
	Plat *platform.Platform
	// BudgetSec is the per-job response-time requirement. Zero selects
	// the workload's paper default (50 ms; 4 s for pocketsphinx).
	// BudgetSec, PeriodSec and Jobs are Run's task's; RunMulti's tasks
	// carry their own.
	BudgetSec float64
	// PeriodSec is the job release period; zero means BudgetSec.
	PeriodSec float64
	// Jobs is the number of jobs; zero selects the workload default.
	Jobs int
	// Seed drives all stochastic elements (switch jitter, work noise)
	// and the workload input generator.
	Seed int64
	// NoiseSigma is the lognormal sigma of run-to-run execution noise
	// (cache and scheduling effects the features cannot see); zero
	// selects 0.05, negative disables noise.
	NoiseSigma float64
	// IdleBetweenJobs drops to the minimum level between jobs (§5.5).
	IdleBetweenJobs bool
	// DisableSwitchLatency makes DVFS transitions free (Fig 18's
	// "w/o dvfs" analysis).
	DisableSwitchLatency bool
	// DisablePredictorCost makes governor decisions free (Fig 18's
	// "w/o predictor+dvfs" analysis).
	DisablePredictorCost bool
	// SensorRateHz enables power-sensor emulation; zero selects the
	// board's 213 Hz.
	SensorRateHz float64
	// Placement selects how the predictor runs relative to the job
	// (§4.3, Fig 14): Sequential (default), Pipelined, or Parallel.
	Placement Placement
	// JobOffset shifts the workload input generator: job i draws the
	// parameters generator index i+JobOffset would produce. Fleet
	// simulation uses it as a per-device phase offset so devices
	// running the same workload and seed do not execute identical
	// input sequences in lockstep. Release times and budgets are
	// unaffected.
	JobOffset int
}

// Placement is the predictor scheduling mode of §4.3.
type Placement int

// Predictor placement modes.
const (
	// Sequential runs the predictor at job start, consuming budget —
	// the paper's choice, since measured predictor times are low.
	Sequential Placement = iota
	// Pipelined runs job i+1's predictor during job i (Fig 14), so
	// the decision is ready at the next release with no budget
	// impact; the concurrent predictor draws helper-core power.
	// Requires the workload's inputs to be known one job ahead
	// (Workload.InputsKnownAhead); otherwise it degrades to
	// Sequential, exactly as the paper notes for interactive tasks.
	Pipelined
	// Parallel starts the job at the current level while the
	// predictor runs concurrently (on a helper core); the DVFS switch
	// happens when the prediction arrives. No budget is consumed, but
	// the start of the job runs at the stale level and the helper
	// core draws power.
	Parallel
)

func (c Config) withDefaults() Config {
	if c.Plat == nil {
		c.Plat = platform.ODROIDXU3A7()
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.05
	}
	if c.NoiseSigma < 0 {
		c.NoiseSigma = 0
	}
	if c.SensorRateHz == 0 {
		c.SensorRateHz = platform.SensorRateHz
	}
	return c
}

// JobRecord is the per-job outcome: the measured Outcome the governor
// was given at JobEnd, plus the job's schedule and decision.
type JobRecord struct {
	Index                           int
	ReleaseSec, EndSec, DeadlineSec float64
	// LevelIdx is the level selected at job start.
	LevelIdx int
	// FreqKHz is LevelIdx's clock rate — recorded so decision logs stay
	// checkable against the platform they claim to come from.
	FreqKHz int64
	// PredictedExecSec is the governor's expectation for ExecSec
	// (NaN for governors that do not predict).
	PredictedExecSec float64
	// Outcome holds the start time, from-level (the switch source
	// replay prices the transition from), the predictor, switch and
	// execution times that decompose the job's wall time, and the
	// deadline miss.
	governor.Outcome
}

// Result aggregates a run.
type Result struct {
	Workload  string
	Governor  string
	BudgetSec float64
	Records   []JobRecord
	// EnergyJ is exactly integrated energy; SensorEnergyJ is the 213 Hz
	// sensor's estimate of the same quantity.
	EnergyJ, SensorEnergyJ float64
	// Breakdown attributes the energy to activities.
	Breakdown   platform.Breakdown
	DurationSec float64
	Misses      int
}

// MissRate returns the fraction of jobs that missed their deadline.
func (r *Result) MissRate() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	return float64(r.Misses) / float64(len(r.Records))
}

// ExecTimes returns each job's execution time in seconds.
func (r *Result) ExecTimes() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.ExecSec
	}
	return out
}

// MeanPredictorSec returns the average per-job predictor overhead.
func (r *Result) MeanPredictorSec() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.PredictorSec
	}
	return s / float64(len(r.Records))
}

// MeanSwitchSec returns the average per-job DVFS switching time.
func (r *Result) MeanSwitchSec() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.SwitchSec
	}
	return s / float64(len(r.Records))
}

const timeEps = 1e-12

// simState carries the running timeline.
type simState struct {
	cfg   Config
	gov   governor.Governor
	rng   *rand.Rand
	meter *platform.EnergyMeter

	now float64
	cur platform.Level

	// Utilization sampling.
	interval   float64
	nextSample float64
	busyAcc    float64

	// pending is a level change requested by a sample, applied at the
	// next drainPending call.
	pending *platform.Level

	// switchSecAcc accumulates transition time since last reset, so
	// job records can attribute mid-job switches.
	switchSecAcc float64

	// extraJoules accrues energy drawn off the main timeline (the
	// parallel placement's helper core).
	extraJoules float64

	// account points at the Breakdown field the current segment's
	// energy belongs to.
	account *float64
	brk     platform.Breakdown
}

// boundary returns time until the next sampling instant (+Inf when the
// governor does not sample).
func (st *simState) boundary() float64 {
	if st.interval <= 0 {
		return math.Inf(1)
	}
	return st.nextSample - st.now
}

// segment advances time by dur at constant power. dur must not cross a
// sampling boundary by more than epsilon; callers clamp with boundary().
func (st *simState) segment(dur, watts float64, busy bool) {
	if dur <= 0 {
		return
	}
	st.meter.AddSegment(dur, watts)
	if st.account != nil {
		*st.account += dur * watts
	}
	st.now += dur
	if busy {
		st.busyAcc += dur
	}
	if st.interval > 0 && st.now >= st.nextSample-timeEps {
		util := st.busyAcc / st.interval
		if util > 1 {
			util = 1
		}
		st.busyAcc = 0
		st.nextSample += st.interval
		want := st.gov.Sample(util, st.cur)
		if want.Index != st.cur.Index {
			w := want
			st.pending = &w
		}
	}
}

// doSwitch transitions to target, paying latency and energy, and
// returns the latency spent.
func (st *simState) doSwitch(target platform.Level) float64 {
	if target.Index == st.cur.Index {
		return 0
	}
	var lat float64
	if !st.cfg.DisableSwitchLatency {
		lat = st.cfg.Plat.SampleSwitchLatency(st.cur, target, st.rng)
	}
	pw := st.cfg.Plat.SwitchPower(st.cur, target)
	prev := st.account
	st.account = &st.brk.SwitchJ
	remaining := lat
	for remaining > timeEps {
		dt := math.Min(remaining, st.boundary())
		st.segment(dt, pw, true)
		remaining -= dt
	}
	st.account = prev
	st.cur = target
	st.switchSecAcc += lat
	return lat
}

// drainPending applies sample-requested transitions (bounded, since a
// transition can itself cross a sampling instant).
func (st *simState) drainPending() {
	for i := 0; i < 4 && st.pending != nil; i++ {
		t := *st.pending
		st.pending = nil
		st.doSwitch(t)
	}
	st.pending = nil
}

// helperRun charges dur seconds of predictor work on the helper core,
// off the main timeline (the parallel and pipelined placements).
func (st *simState) helperRun(dur float64) {
	e := dur * st.cfg.Plat.HelperPower()
	st.extraJoules += e
	st.brk.PredictorJ += e
}

// busyRun spends dur busy at constant power (predictor execution),
// splitting at sampling boundaries.
func (st *simState) busyRun(dur, watts float64) {
	prev := st.account
	st.account = &st.brk.PredictorJ
	remaining := dur
	for remaining > timeEps {
		dt := math.Min(remaining, st.boundary())
		st.segment(dt, watts, true)
		remaining -= dt
	}
	st.account = prev
	st.drainPending()
}

// idleUntil idles (at the current level's idle power) until time t,
// honoring sampling governors' level changes along the way.
func (st *simState) idleUntil(t float64) {
	prev := st.account
	st.account = &st.brk.IdleJ
	for st.now < t-timeEps {
		dt := math.Min(t-st.now, st.boundary())
		st.segment(dt, st.cfg.Plat.IdlePower(st.cur), false)
		// A sampling switch during idle belongs to the switch account;
		// drainPending manages that itself.
		st.account = nil
		st.drainPending()
		st.account = &st.brk.IdleJ
	}
	st.account = prev
}

// execJobFor drains a job's remaining work for at most dur seconds at
// the prevailing levels, handling mid-job sampling transitions (which
// stall the job). It returns the execution time actually spent, which
// is less than dur when the job completes early.
func (st *simState) execJobFor(cpuWork, memSec *float64, dur float64) float64 {
	prev := st.account
	defer func() { st.account = prev }()
	exec := 0.0
	for dur-exec > timeEps && (*cpuWork > 0 || *memSec > timeEps) {
		tNeed := st.cfg.Plat.JobTimeAt(*cpuWork, *memSec, st.cur)
		if tNeed <= timeEps {
			break
		}
		dt := math.Min(math.Min(tNeed, st.boundary()), dur-exec)
		st.account = &st.brk.ExecJ
		st.segment(dt, st.cfg.Plat.ActivePower(st.cur), true)
		st.account = prev
		exec += dt
		frac := dt / tNeed
		if frac >= 1 {
			*cpuWork, *memSec = 0, 0
		} else {
			*cpuWork *= 1 - frac
			*memSec *= 1 - frac
		}
		st.drainPending()
	}
	return exec
}

// execJob runs a job's work to completion and returns the pure
// execution time (transition stalls excluded).
func (st *simState) execJob(cpuWork, memSec float64) float64 {
	return st.execJobFor(&cpuWork, &memSec, math.Inf(1))
}

// Run simulates the workload under the governor: RunMulti of one task
// that takes cfg's BudgetSec, PeriodSec and Jobs. The Result carries
// the run's energy and duration.
func Run(w *workload.Workload, gov governor.Governor, cfg Config) (*Result, error) {
	m, err := RunMulti([]TaskSpec{{W: w, Gov: gov, BudgetSec: cfg.BudgetSec, PeriodSec: cfg.PeriodSec, Jobs: cfg.Jobs}}, cfg)
	if err != nil {
		return nil, err
	}
	r := m.PerTask[0]
	r.EnergyJ, r.SensorEnergyJ, r.Breakdown, r.DurationSec = m.EnergyJ, m.SensorEnergyJ, m.Breakdown, m.DurationSec
	return r, nil
}
