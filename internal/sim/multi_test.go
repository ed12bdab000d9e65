package sim

import (
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
	// With generous budgets the predictive controllers miss (almost)
	// nothing even while sharing the core.
	for i, r := range pred.PerTask {
		if r.MissRate() > 0.02 {
			t.Errorf("task %d miss rate %.3f", i, r.MissRate())
		}
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

func TestRunMultiRejectsSamplingGovernors(t *testing.T) {
	p := platform.ODROIDXU3A7()
	w := workload.Game2048()
	_, err := RunMulti([]TaskSpec{
		{W: w, Gov: &governor.Interactive{Plat: p}},
	}, Config{Plat: p, Seed: 1})
	if err == nil {
		t.Fatal("sampling governor should be rejected in multi-task mode")
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
