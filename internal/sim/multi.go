package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// The paper supports "multiple non-overlapping tasks" on one core
// (§4.1) but evaluates a single task; RunMulti implements the
// multi-task case: several periodic tasks share the CPU, their jobs
// serialize in release order, and each task brings its own governor
// (typically its own generated prediction controller). Deadline
// bookkeeping is per task; energy is shared.

// TaskSpec is one periodic task in a multi-task run.
type TaskSpec struct {
	// W is the task's workload.
	W *workload.Workload
	// Gov decides DVFS for this task's jobs.
	Gov governor.Governor
	// BudgetSec is the response-time requirement; zero selects the
	// workload default.
	BudgetSec float64
	// PeriodSec is the release period; zero means BudgetSec.
	PeriodSec float64
	// OffsetSec shifts the first release, de-phasing tasks.
	OffsetSec float64
	// Jobs is the job count; zero selects the workload default.
	Jobs int
}

// MultiResult aggregates a multi-task run.
type MultiResult struct {
	// PerTask holds one Result per TaskSpec, in order.
	PerTask []*Result
	// EnergyJ is the shared total energy.
	EnergyJ     float64
	DurationSec float64
}

// multiJob is one released job in the global schedule.
type multiJob struct {
	task    int
	index   int
	release float64
}

// RunMulti simulates several tasks sharing the core. Sampling
// governors are not supported in multi-task mode (the kernel would
// need one shared policy; the paper's controllers are job-triggered).
func RunMulti(tasks []TaskSpec, cfg Config) (*MultiResult, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	if cfg.Plat == nil {
		cfg.Plat = platform.ODROIDXU3A7()
	}
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = 0.05
	}
	if cfg.NoiseSigma < 0 {
		cfg.NoiseSigma = 0
	}
	if cfg.SensorRateHz == 0 {
		cfg.SensorRateHz = platform.SensorRateHz
	}
	for i := range tasks {
		t := &tasks[i]
		if t.BudgetSec == 0 {
			t.BudgetSec = t.W.DefaultBudgetSec
		}
		if t.PeriodSec == 0 {
			t.PeriodSec = t.BudgetSec
		}
		if t.Jobs == 0 {
			t.Jobs = t.W.EvalJobs
		}
		if t.Gov.SampleInterval() > 0 {
			return nil, fmt.Errorf("sim: sampling governor %q unsupported in multi-task mode", t.Gov.Name())
		}
	}

	// Build the global release schedule.
	var sched []multiJob
	for ti, t := range tasks {
		for j := 0; j < t.Jobs; j++ {
			sched = append(sched, multiJob{
				task:    ti,
				index:   j,
				release: t.OffsetSec + float64(j)*t.PeriodSec,
			})
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].release != sched[j].release {
			return sched[i].release < sched[j].release
		}
		return sched[i].task < sched[j].task
	})

	rng := rand.New(rand.NewSource(cfg.Seed))
	st := &simState{
		cfg:   cfg,
		gov:   tasks[0].Gov, // sampling unused; st.gov only serves Sample()
		rng:   rng,
		meter: platform.NewEnergyMeter(cfg.SensorRateHz),
		cur:   cfg.Plat.MaxLevel(),
	}

	out := &MultiResult{PerTask: make([]*Result, len(tasks))}
	gens := make([]workload.InputGen, len(tasks))
	globals := make([]map[string]int64, len(tasks))
	progs := make([]*taskir.Lowered, len(tasks))
	for i, t := range tasks {
		out.PerTask[i] = &Result{
			Workload:  t.W.Name,
			Governor:  t.Gov.Name(),
			BudgetSec: t.BudgetSec,
		}
		gens[i] = t.W.NewGen(cfg.Seed + 1 + int64(i))
		globals[i] = t.W.FreshGlobals()
		progs[i] = taskir.Lower(t.W.Prog)
	}

	for _, mj := range sched {
		t := tasks[mj.task]
		if st.now < mj.release {
			st.idleUntil(mj.release)
		}
		start := st.now
		fromLevel := st.cur.Index
		deadline := mj.release + t.BudgetSec
		params := gens[mj.task].Next(mj.index)
		g := globals[mj.task]
		prog := progs[mj.task]

		job := &governor.Job{
			Index:              mj.index,
			Params:             params,
			Globals:            g,
			ReleaseSec:         mj.release,
			DeadlineSec:        deadline,
			RemainingBudgetSec: deadline - start,
			PeekWork: func() taskir.Work {
				env := taskir.NewEnv(g)
				env.Freeze()
				env.SetParams(params)
				pw, err := prog.Run(env, taskir.RunOptions{})
				if err != nil {
					return taskir.Work{}
				}
				return pw
			},
		}

		st.switchSecAcc = 0
		dec := t.Gov.JobStart(job, st.cur)
		predictorSec := dec.PredictorSec
		if cfg.DisablePredictorCost {
			predictorSec = 0
		}
		if predictorSec > 0 {
			st.busyRun(predictorSec, cfg.Plat.ActivePower(st.cur))
		}
		if dec.Target.Index != st.cur.Index {
			st.doSwitch(dec.Target)
		}

		env := taskir.NewEnv(g)
		env.SetParams(params)
		wk, err := prog.Run(env, taskir.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("sim: %s job %d: %w", t.W.Name, mj.index, err)
		}
		noise := 1.0
		if cfg.NoiseSigma > 0 {
			n := cfg.NoiseSigma * rng.NormFloat64()
			lim := 3 * cfg.NoiseSigma
			noise = math.Exp(math.Max(-lim, math.Min(lim, n)))
		}
		execSec := st.execJob(wk.CPU*cfg.Plat.CPIScale*noise, wk.MemSec*cfg.Plat.MemScale*noise)

		end := st.now
		o := governor.Outcome{
			StartSec:     start,
			FromLevelIdx: fromLevel,
			PredictorSec: predictorSec,
			SwitchSec:    st.switchSecAcc,
			ExecSec:      execSec,
			Missed:       end > deadline+timeEps,
		}
		res := out.PerTask[mj.task]
		if o.Missed {
			res.Misses++
		}
		res.Records = append(res.Records, JobRecord{
			Index:            mj.index,
			ReleaseSec:       mj.release,
			EndSec:           end,
			DeadlineSec:      deadline,
			LevelIdx:         dec.Target.Index,
			FreqKHz:          int64(dec.Target.FreqHz / 1e3),
			PredictedExecSec: dec.PredictedExecSec,
			Outcome:          o,
		})
		t.Gov.JobEnd(job, o)

		if cfg.IdleBetweenJobs && st.cur.Index != cfg.Plat.MinLevel().Index {
			st.doSwitch(cfg.Plat.MinLevel())
		}
	}
	// Drain to the latest horizon.
	horizon := 0.0
	for _, t := range tasks {
		if h := t.OffsetSec + float64(t.Jobs)*t.PeriodSec; h > horizon {
			horizon = h
		}
	}
	st.idleUntil(horizon)

	out.EnergyJ = st.meter.EnergyJoules()
	out.DurationSec = st.meter.ElapsedSec()
	return out, nil
}
