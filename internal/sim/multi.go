package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// RunMulti is the simulator's one job loop. The paper supports
// "multiple non-overlapping tasks" on one core (§4.1) but evaluates a
// single task, which Run simulates as RunMulti of one TaskSpec. The
// tasks' jobs serialize on the core in release order, and each task
// brings its own governor (typically its own generated prediction
// controller) and its own input generator. Every job takes the same
// step, whatever the number of tasks: the predictor placement and
// Config.JobOffset apply per task. Deadline bookkeeping is per task;
// energy is shared.

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

func (t TaskSpec) withDefaults() TaskSpec {
	if t.BudgetSec == 0 {
		t.BudgetSec = t.W.DefaultBudgetSec
	}
	if t.PeriodSec == 0 {
		t.PeriodSec = t.BudgetSec
	}
	if t.Jobs == 0 {
		t.Jobs = t.W.EvalJobs
	}
	return t
}

// release returns the release time of the task's job j.
func (t *TaskSpec) release(j int) float64 {
	return t.OffsetSec + float64(j)*t.PeriodSec
}

// MultiResult aggregates a run of one or more tasks. The core's energy
// is shared, so it is reported here and not per task.
type MultiResult struct {
	// PerTask holds one Result per TaskSpec, in order.
	PerTask []*Result
	// EnergyJ is the shared total energy, exactly integrated;
	// SensorEnergyJ is the 213 Hz sensor's estimate of the same
	// quantity. Both include the helper core's predictor energy.
	EnergyJ, SensorEnergyJ float64
	// Breakdown attributes EnergyJ to activities.
	Breakdown   platform.Breakdown
	DurationSec float64
}

// multiJob is one released job in the global schedule.
type multiJob struct {
	task    int
	index   int
	release float64
}

// taskState is one task's running state.
type taskState struct {
	TaskSpec
	res     *Result
	gen     workload.InputGen
	globals map[string]int64
	// prog is the task program, lowered once: it runs every job and
	// every PeekWork.
	prog *taskir.Lowered
	// params holds the inputs of job paramsFor. A task asks for its
	// jobs in order, and the pipelined look-ahead asks for the next
	// job's before the job itself, so each job's are drawn once.
	params    map[string]int64
	paramsFor int
	// pipelined is set when the placement is Pipelined and the task's
	// inputs are known ahead; prepared is then the decision computed
	// for job preparedFor during the task's previous job.
	pipelined   bool
	prepared    governor.Decision
	preparedFor int
}

// job builds the governor's view of the task's job i, starting at
// startSec. The generator draws job i's inputs at index i+jobOffset.
func (ts *taskState) job(i int, startSec float64, jobOffset int) *governor.Job {
	if i != ts.paramsFor {
		ts.params, ts.paramsFor = ts.gen.Next(i+jobOffset), i
	}
	params := ts.params
	release := ts.release(i)
	deadline := release + ts.BudgetSec
	globals, prog := ts.globals, ts.prog
	return &governor.Job{
		Index:              i,
		Params:             params,
		Globals:            globals,
		ReleaseSec:         release,
		DeadlineSec:        deadline,
		RemainingBudgetSec: deadline - startSec,
		PeekWork: func() taskir.Work {
			env := taskir.NewEnv(globals)
			env.Freeze()
			env.SetParams(params)
			pw, err := prog.Run(env, taskir.RunOptions{})
			if err != nil {
				return taskir.Work{}
			}
			return pw
		},
	}
}

// RunMulti simulates the tasks sharing the core. A sampling governor
// must be the only task: the kernel runs one policy, and the paper's
// controllers are job-triggered.
func RunMulti(tasks []TaskSpec, cfg Config) (*MultiResult, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	cfg = cfg.withDefaults()

	states := make([]taskState, len(tasks))
	total := 0
	for i, t := range tasks {
		t = t.withDefaults()
		if len(tasks) > 1 && t.Gov.SampleInterval() > 0 {
			return nil, fmt.Errorf("sim: sampling governor %q unsupported in multi-task mode", t.Gov.Name())
		}
		states[i] = taskState{
			TaskSpec: t,
			res: &Result{
				Workload:  t.W.Name,
				Governor:  t.Gov.Name(),
				BudgetSec: t.BudgetSec,
				Records:   make([]JobRecord, 0, t.Jobs),
			},
			gen:         t.W.NewGen(cfg.Seed + 1 + int64(i)),
			globals:     t.W.FreshGlobals(),
			prog:        taskir.Lower(t.W.Prog),
			paramsFor:   -1,
			pipelined:   cfg.Placement == Pipelined && t.W.InputsKnownAhead,
			preparedFor: -1,
		}
		total += t.Jobs
	}

	// The global release schedule: every task's jobs in (release,
	// task) order.
	sched := make([]multiJob, 0, total)
	for ti := range states {
		for j := 0; j < states[ti].Jobs; j++ {
			sched = append(sched, multiJob{task: ti, index: j, release: states[ti].release(j)})
		}
	}
	slices.SortFunc(sched, func(a, b multiJob) int {
		if c := cmp.Compare(a.release, b.release); c != 0 {
			return c
		}
		return cmp.Compare(a.task, b.task)
	})

	rng := rand.New(rand.NewSource(cfg.Seed))
	gov := tasks[0].Gov // the only task when it samples
	st := &simState{
		cfg:      cfg,
		gov:      gov,
		rng:      rng,
		meter:    platform.NewEnergyMeter(cfg.SensorRateHz),
		cur:      cfg.Plat.MaxLevel(),
		interval: gov.SampleInterval(),
	}
	st.nextSample = st.interval

	for _, mj := range sched {
		ts := &states[mj.task]
		if st.now < mj.release {
			st.idleUntil(mj.release)
		}
		start := st.now
		fromLevel := st.cur.Index
		deadline := mj.release + ts.BudgetSec
		job := ts.job(mj.index, start, cfg.JobOffset)

		st.switchSecAcc = 0
		var dec governor.Decision
		predictorSec := 0.0
		if ts.preparedFor == mj.index {
			// The decision was computed during the task's previous job;
			// no budget is consumed now.
			dec = ts.prepared
		} else {
			dec = ts.Gov.JobStart(job, st.cur)
			predictorSec = dec.PredictorSec
			if cfg.DisablePredictorCost {
				predictorSec = 0
			}
		}
		ts.preparedFor = -1

		// Execute the job for real (this advances the program state).
		env := taskir.NewEnv(ts.globals)
		env.SetParams(job.Params)
		wk, err := ts.prog.Run(env, taskir.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("sim: %s job %d: %w", ts.W.Name, mj.index, err)
		}
		noise := 1.0
		if cfg.NoiseSigma > 0 {
			n := cfg.NoiseSigma * rng.NormFloat64()
			lim := 3 * cfg.NoiseSigma
			noise = math.Exp(math.Max(-lim, math.Min(lim, n)))
		}
		cpu := wk.CPU * cfg.Plat.CPIScale * noise
		mem := wk.MemSec * cfg.Plat.MemScale * noise

		execSec := 0.0
		if cfg.Placement == Parallel && predictorSec > 0 {
			// The job starts immediately at the stale level while the
			// predictor runs on a helper core.
			execSec += st.execJobFor(&cpu, &mem, predictorSec)
			st.helperRun(predictorSec)
		} else if predictorSec > 0 {
			st.busyRun(predictorSec, cfg.Plat.ActivePower(st.cur))
		}
		if (cpu > 0 || mem > timeEps) && dec.Target.Index != st.cur.Index {
			st.doSwitch(dec.Target)
		}
		st.drainPending()
		execSec += st.execJob(cpu, mem)

		end := st.now
		out := governor.Outcome{
			StartSec:     start,
			FromLevelIdx: fromLevel,
			PredictorSec: predictorSec,
			SwitchSec:    st.switchSecAcc,
			ExecSec:      execSec,
			Missed:       end > deadline+timeEps,
		}
		if out.Missed {
			ts.res.Misses++
		}
		ts.res.Records = append(ts.res.Records, JobRecord{
			Index:            mj.index,
			ReleaseSec:       mj.release,
			EndSec:           end,
			DeadlineSec:      deadline,
			LevelIdx:         dec.Target.Index,
			FreqKHz:          int64(dec.Target.FreqHz / 1e3),
			PredictedExecSec: dec.PredictedExecSec,
			Outcome:          out,
		})
		ts.Gov.JobEnd(job, out)

		// Pipelined placement: the task's next predictor runs
		// concurrently with this job (helper core), so its decision is
		// ready at the next release with no timeline impact, only
		// helper energy.
		if next := mj.index + 1; ts.pipelined && next < ts.Jobs {
			d := ts.Gov.JobStart(ts.job(next, ts.release(next), cfg.JobOffset), st.cur)
			if !cfg.DisablePredictorCost && d.PredictorSec > 0 {
				st.helperRun(d.PredictorSec)
			}
			ts.prepared, ts.preparedFor = d, next
		}

		if cfg.IdleBetweenJobs && st.cur.Index != cfg.Plat.MinLevel().Index {
			st.doSwitch(cfg.Plat.MinLevel())
		}
	}
	// Drain to the latest task's horizon, so every governor is charged
	// the same wall-clock time.
	horizon := 0.0
	for i := range states {
		horizon = math.Max(horizon, states[i].release(states[i].Jobs))
	}
	st.idleUntil(horizon)

	res := &MultiResult{
		PerTask:       make([]*Result, len(states)),
		EnergyJ:       st.meter.EnergyJoules() + st.extraJoules,
		SensorEnergyJ: st.meter.SensorEnergyJoules() + st.extraJoules,
		Breakdown:     st.brk,
		DurationSec:   st.meter.ElapsedSec(),
	}
	for i := range states {
		res.PerTask[i] = states[i].res
	}
	return res, nil
}
