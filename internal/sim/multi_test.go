package sim

import (
	"maps"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestRunMultiTwoTasks(t *testing.T) {
	p := platform.ODROIDXU3A7()
	ld := workload.LDecode()
	xp := workload.XPilot()
	ldCtrl, err := core.Build(ld, core.Config{Plat: p, ProfileSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	xpCtrl, err := core.Build(xp, core.Config{Plat: p, ProfileSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// A video decoder at 10 fps plus a game overlay at 20 fps; the
	// combined utilization leaves slack for DVFS.
	tasks := []TaskSpec{
		{W: ld, Gov: ldCtrl, BudgetSec: 0.100, PeriodSec: 0.100, Jobs: 150},
		{W: xp, Gov: xpCtrl, BudgetSec: 0.050, PeriodSec: 0.050, OffsetSec: 0.037, Jobs: 300},
	}
	pred, err := RunMulti(tasks, Config{Plat: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.PerTask) != 2 {
		t.Fatalf("per-task results = %d", len(pred.PerTask))
	}
	if n := len(pred.PerTask[0].Records); n != 150 {
		t.Errorf("task 0 jobs = %d", n)
	}
	if n := len(pred.PerTask[1].Records); n != 300 {
		t.Errorf("task 1 jobs = %d", n)
	}
	// With generous budgets the predictive controllers miss no job the
	// core starts at its release, even while sharing it. A job queued
	// behind the other task's may miss: that is the §7 contention the
	// coordinator removes (TestRunMultiCoordinationReducesContention).
	for i, r := range pred.PerTask {
		for _, rec := range r.Records {
			if rec.Missed && rec.StartSec <= rec.ReleaseSec+timeEps {
				t.Errorf("task %d job %d started at its release and missed", i, rec.Index)
			}
		}
	}
	if r := pred.PerTask[0].MissRate(); r > 0.02 {
		t.Errorf("ldecode miss rate %.3f", r)
	}

	// Baseline: both tasks under performance governors.
	perfTasks := []TaskSpec{
		{W: ld, Gov: &governor.Performance{Plat: p}, BudgetSec: 0.100, PeriodSec: 0.100, Jobs: 150},
		{W: xp, Gov: &governor.Performance{Plat: p}, BudgetSec: 0.050, PeriodSec: 0.050, OffsetSec: 0.037, Jobs: 300},
	}
	perf, err := RunMulti(perfTasks, Config{Plat: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pred.EnergyJ >= perf.EnergyJ {
		t.Errorf("multi-task prediction energy %.4g not below performance %.4g",
			pred.EnergyJ, perf.EnergyJ)
	}
	saving := 1 - pred.EnergyJ/perf.EnergyJ
	if saving < 0.2 {
		t.Errorf("multi-task saving %.2f too small", saving)
	}
	t.Logf("multi-task: %.1f%% energy saving, misses %.2f%% / %.2f%%",
		saving*100, 100*pred.PerTask[0].MissRate(), 100*pred.PerTask[1].MissRate())
}

func TestRunMultiJobsSerializeInOrder(t *testing.T) {
	p := platform.ODROIDXU3A7()
	w := workload.Game2048()
	tasks := []TaskSpec{
		{W: w, Gov: &governor.Performance{Plat: p}, BudgetSec: 0.010, PeriodSec: 0.010, Jobs: 50},
		{W: w, Gov: &governor.Performance{Plat: p}, BudgetSec: 0.010, PeriodSec: 0.010, OffsetSec: 0.005, Jobs: 50},
	}
	r, err := RunMulti(tasks, Config{Plat: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Merge all records and check no two executions overlap.
	type span struct{ s, e float64 }
	var spans []span
	for _, res := range r.PerTask {
		for _, rec := range res.Records {
			spans = append(spans, span{rec.StartSec, rec.EndSec})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.s < b.e-1e-12 && b.s < a.e-1e-12 {
				t.Fatalf("executions overlap: [%g,%g] and [%g,%g]", a.s, a.e, b.s, b.e)
			}
		}
	}
}

// A sampling governor must be the only task: the kernel runs one
// policy.
func TestRunMultiRejectsSamplingGovernors(t *testing.T) {
	p := platform.ODROIDXU3A7()
	w := workload.Game2048()
	_, err := RunMulti([]TaskSpec{
		{W: w, Gov: &governor.Interactive{Plat: p}},
		{W: w, Gov: &governor.Performance{Plat: p}},
	}, Config{Plat: p, Seed: 1})
	if err == nil {
		t.Fatal("sampling governor should be rejected in multi-task mode")
	}
	if _, err := RunMulti([]TaskSpec{{W: w, Gov: &governor.Interactive{Plat: p}, Jobs: 20}}, Config{Plat: p, Seed: 1}); err != nil {
		t.Fatalf("a sampling governor alone: %v", err)
	}
}

// startRecorder passes a governor's decisions through and keeps what
// each JobStart saw and charged.
type startRecorder struct {
	governor.Governor
	// predictorSec sums every decision's predictor time, charged to
	// the job or not.
	predictorSec float64
	// params holds each job's inputs, in JobStart order.
	params []map[string]int64
}

func (g *startRecorder) JobStart(job *governor.Job, cur platform.Level) governor.Decision {
	d := g.Governor.JobStart(job, cur)
	g.predictorSec += d.PredictorSec
	g.params = append(g.params, job.Params)
	return d
}

// predictionPair is TestRunMultiTwoTasks' pair of tasks under fresh
// prediction controllers, each behind a startRecorder: ldecode, whose
// inputs are known a job ahead, and xpilot, whose are not.
func predictionPair(t *testing.T, p *platform.Platform) []TaskSpec {
	t.Helper()
	ld := workload.LDecode()
	xp := workload.XPilot()
	ldCtrl, err := core.Build(ld, core.Config{Plat: p, ProfileSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	xpCtrl, err := core.Build(xp, core.Config{Plat: p, ProfileSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return []TaskSpec{
		{W: ld, Gov: &startRecorder{Governor: ldCtrl}, BudgetSec: 0.100, PeriodSec: 0.100, Jobs: 150},
		{W: xp, Gov: &startRecorder{Governor: xpCtrl}, BudgetSec: 0.050, PeriodSec: 0.050, OffsetSec: 0.037, Jobs: 300},
	}
}

// Every task's job takes Run's step: the predictor placement applies
// per task, the helper core's predictor energy is counted, and the
// shared energy has a breakdown and a sensor estimate.
func TestRunMultiPlacements(t *testing.T) {
	p := platform.ODROIDXU3A7()
	for _, pl := range []Placement{Sequential, Pipelined, Parallel} {
		tasks := predictionPair(t, p)
		r, err := RunMulti(tasks, Config{Plat: p, Seed: 3, Placement: pl})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(r.Breakdown.Total() - r.EnergyJ); diff > 1e-9*r.EnergyJ+1e-12 {
			t.Errorf("placement %d: breakdown total %.6g != energy %.6g", pl, r.Breakdown.Total(), r.EnergyJ)
		}
		if math.Abs(r.SensorEnergyJ-r.EnergyJ)/r.EnergyJ > 0.02 {
			t.Errorf("placement %d: sensor energy %.4g deviates from exact %.4g", pl, r.SensorEnergyJ, r.EnergyJ)
		}
		// A job's timeline carries no predictor time under Parallel,
		// nor under Pipelined once a task whose inputs are known ahead
		// (ldecode) has its first decision; xpilot stays sequential.
		for i, res := range r.PerTask {
			for _, rec := range res.Records {
				hidden := pl == Parallel || pl == Pipelined && i == 0 && rec.Index > 0
				if hidden != (rec.PredictorSec == 0) {
					t.Fatalf("placement %d task %d job %d: predictor time %g", pl, i, rec.Index, rec.PredictorSec)
				}
			}
		}
		// A charged predictor runs busy on the core at the job's
		// from-level; every other decision's predictor ran on the
		// helper core, beside its job (Parallel) or during the task's
		// previous job (Pipelined).
		var want, helper float64
		for i, res := range r.PerTask {
			charged := 0.0
			for _, rec := range res.Records {
				want += rec.PredictorSec * p.ActivePower(p.Levels[rec.FromLevelIdx])
				charged += rec.PredictorSec
			}
			h := tasks[i].Gov.(*startRecorder).predictorSec - charged
			want += h * p.HelperPower()
			helper += h
		}
		if (pl == Sequential) != (helper == 0) {
			t.Errorf("placement %d: %g s of predictor time on the helper core", pl, helper)
		}
		if got := r.Breakdown.PredictorJ; math.Abs(got-want) > 1e-9*want {
			t.Errorf("placement %d: predictor energy %.9g, want %.9g", pl, got, want)
		}
	}
}

// Config.JobOffset shifts every task's input generator: job j draws
// the inputs its generator produces at index j+JobOffset.
func TestRunMultiJobOffset(t *testing.T) {
	p := platform.ODROIDXU3A7()
	tasks := predictionPair(t, p)
	cfg := Config{Plat: p, Seed: 3, JobOffset: 3}
	if _, err := RunMulti(tasks, cfg); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		seen := task.Gov.(*startRecorder).params
		if len(seen) != task.Jobs {
			t.Fatalf("task %d: %d decisions for %d jobs", i, len(seen), task.Jobs)
		}
		gen := task.W.NewGen(cfg.Seed + 1 + int64(i))
		for j, params := range seen {
			if want := gen.Next(j + cfg.JobOffset); !maps.Equal(params, want) {
				t.Fatalf("task %d job %d: inputs %v, want generator index %d's %v", i, j, params, j+cfg.JobOffset, want)
			}
		}
	}
}

func TestRunMultiEmpty(t *testing.T) {
	if _, err := RunMulti(nil, Config{}); err == nil {
		t.Fatal("empty task list should error")
	}
}

// The coordinator (§7 contention extension) must cut the short-budget
// task's queueing misses versus uncoordinated per-task controllers.
func TestRunMultiCoordinationReducesContention(t *testing.T) {
	p := platform.ODROIDXU3A7()
	ld := workload.LDecode()
	xp := workload.XPilot()
	build := func() (governor.Governor, governor.Governor) {
		a, err := core.Build(ld, core.Config{Plat: p, ProfileSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Build(xp, core.Config{Plat: p, ProfileSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	mk := func(g1, g2 governor.Governor) []TaskSpec {
		return []TaskSpec{
			{W: ld, Gov: g1, BudgetSec: 0.100, PeriodSec: 0.100, Jobs: 200},
			{W: xp, Gov: g2, BudgetSec: 0.050, PeriodSec: 0.050, OffsetSec: 0.037, Jobs: 400},
		}
	}

	a1, b1 := build()
	plain, err := RunMulti(mk(a1, b1), Config{Plat: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	a2, b2 := build()
	coord := governor.NewCoordinator()
	g1 := coord.Wrap(a2, 0.100, 0)
	g2 := coord.Wrap(b2, 0.050, 0.037)
	coordinated, err := RunMulti(mk(g1, g2), Config{Plat: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	plainMiss := plain.PerTask[1].MissRate()
	coordMiss := coordinated.PerTask[1].MissRate()
	t.Logf("xpilot misses: plain %.2f%%, coordinated %.2f%%; energy %.3g vs %.3g J",
		100*plainMiss, 100*coordMiss, plain.EnergyJ, coordinated.EnergyJ)
	if coordMiss >= plainMiss {
		t.Errorf("coordination did not reduce contention misses: %.3f vs %.3f", coordMiss, plainMiss)
	}
	// The decoder must stay deadline-clean while yielding.
	if coordinated.PerTask[0].MissRate() > 0.01 {
		t.Errorf("ldecode misses %.3f under coordination", coordinated.PerTask[0].MissRate())
	}
	// The price is bounded: energy within 20% of uncoordinated.
	if coordinated.EnergyJ > plain.EnergyJ*1.2 {
		t.Errorf("coordination energy %.3g too far above plain %.3g", coordinated.EnergyJ, plain.EnergyJ)
	}
}

// TestRunMultiRecordsLevels: every record names the level the core was
// at when its job started and the chosen level's clock, as Run's
// records do — replay prices each transition from FromLevelIdx.
func TestRunMultiRecordsLevels(t *testing.T) {
	p := platform.ODROIDXU3A7()
	w := workload.Game2048()
	mid := p.Levels[len(p.Levels)/2]
	for _, idle := range []bool{false, true} {
		tasks := []TaskSpec{
			{W: w, Gov: &governor.Fixed{Level: mid}, BudgetSec: 0.010, PeriodSec: 0.010, Jobs: 20},
			{W: w, Gov: &governor.Powersave{Plat: p}, BudgetSec: 0.010, PeriodSec: 0.010, OffsetSec: 0.005, Jobs: 20},
		}
		r, err := RunMulti(tasks, Config{Plat: p, Seed: 1, IdleBetweenJobs: idle})
		if err != nil {
			t.Fatal(err)
		}
		var recs []JobRecord
		for _, res := range r.PerTask {
			recs = append(recs, res.Records...)
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].StartSec < recs[j].StartSec })
		from := p.MaxLevel().Index
		for i, rec := range recs {
			if rec.FromLevelIdx != from {
				t.Fatalf("idle=%v record %d: FromLevelIdx %d, want %d", idle, i, rec.FromLevelIdx, from)
			}
			if want := int64(p.Levels[rec.LevelIdx].FreqHz / 1e3); rec.FreqKHz != want {
				t.Fatalf("idle=%v record %d: FreqKHz %d, want %d", idle, i, rec.FreqKHz, want)
			}
			from = rec.LevelIdx
			if idle {
				from = p.MinLevel().Index
			}
		}
	}
}
