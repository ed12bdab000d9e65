package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestSolveRoundTrips(t *testing.T) {
	// A job with known Ndep/Tmem: solving from its times at two
	// frequencies must recover the components.
	fmin, fmax := 200e6, 1400e6
	want := TwoPoint{Ndep: 5e6, TmemSec: 0.004}
	tp := Solve(want.TimeAt(fmin), want.TimeAt(fmax), fmin, fmax)
	if math.Abs(tp.Ndep-want.Ndep) > 1 {
		t.Errorf("Ndep = %g, want %g", tp.Ndep, want.Ndep)
	}
	if math.Abs(tp.TmemSec-want.TmemSec) > 1e-12 {
		t.Errorf("Tmem = %g, want %g", tp.TmemSec, want.TmemSec)
	}
}

func TestSolveClampsNegative(t *testing.T) {
	// tfmin < tfmax (noise) implies negative Ndep → clamp.
	tp := Solve(0.001, 0.002, 200e6, 1400e6)
	if tp.Ndep != 0 {
		t.Errorf("Ndep = %g, want 0", tp.Ndep)
	}
	// Pure CPU job: Tmem ≈ 0; perturb so raw Tmem < 0.
	tp = Solve(0.014, 0.0019, 200e6, 1400e6)
	if tp.TmemSec < 0 {
		t.Errorf("Tmem = %g, want ≥ 0", tp.TmemSec)
	}
}

func TestSolveDegenerateFrequencies(t *testing.T) {
	tp := Solve(0.01, 0.01, 1e9, 1e9)
	if tp.Ndep != 0.01*1e9 || tp.TmemSec != 0 {
		t.Errorf("degenerate solve = %+v", tp)
	}
}

func newSelector(margin float64, withSwitch bool) *Selector {
	p := platform.ODROIDXU3A7()
	var tbl *platform.SwitchTable
	if withSwitch {
		tbl = platform.MeasureSwitchTable(p, 200, 0.95, 1)
	}
	return &Selector{Plat: p, Switch: tbl, Margin: margin}
}

func TestPickMeetsBudget(t *testing.T) {
	s := newSelector(0.10, true)
	p := s.Plat
	cur := p.MaxLevel()
	// Job: 7e6 cycles + 2 ms memory; times at fmin/fmax:
	job := TwoPoint{Ndep: 7e6, TmemSec: 0.002}
	tfmin := job.TimeAt(p.MinLevel().FreqHz)
	tfmax := job.TimeAt(p.MaxLevel().FreqHz)

	budget := 0.050
	l := s.Pick(cur, tfmin, tfmax, budget)
	// The chosen level must satisfy the margin-inflated model within
	// the switch-adjusted budget.
	eff := budget - s.Switch.Lookup(cur.Index, l.Index)
	predicted := 1.1 * job.TimeAt(l.FreqHz)
	if predicted > eff {
		t.Errorf("picked level %d predicted %gs > effective budget %gs", l.Index, predicted, eff)
	}
	// And the next level down must NOT satisfy it (minimality).
	if l.Index > 0 {
		lower := p.Levels[l.Index-1]
		effLo := budget - s.Switch.Lookup(cur.Index, lower.Index)
		if 1.1*job.TimeAt(lower.FreqHz) <= effLo {
			t.Errorf("level %d would also meet budget; Pick not minimal", lower.Index)
		}
	}
}

func TestPickTightBudgetPicksMax(t *testing.T) {
	s := newSelector(0.10, true)
	p := s.Plat
	job := TwoPoint{Ndep: 60e6, TmemSec: 0.01}
	tfmin := job.TimeAt(p.MinLevel().FreqHz)
	tfmax := job.TimeAt(p.MaxLevel().FreqHz)
	l := s.Pick(p.MinLevel(), tfmin, tfmax, 0.020)
	if l.Index != p.MaxLevel().Index {
		t.Errorf("infeasible budget picked level %d, want max", l.Index)
	}
}

func TestPickGenerousBudgetPicksMin(t *testing.T) {
	s := newSelector(0.10, true)
	p := s.Plat
	job := TwoPoint{Ndep: 1e6, TmemSec: 0.0001}
	l := s.Pick(p.MaxLevel(), job.TimeAt(p.MinLevel().FreqHz), job.TimeAt(p.MaxLevel().FreqHz), 1.0)
	if l.Index != 0 {
		t.Errorf("generous budget picked level %d, want 0", l.Index)
	}
}

func TestPickMarginRaisesLevel(t *testing.T) {
	p := platform.ODROIDXU3A7()
	job := TwoPoint{Ndep: 20e6, TmemSec: 0.002}
	tfmin := job.TimeAt(p.MinLevel().FreqHz)
	tfmax := job.TimeAt(p.MaxLevel().FreqHz)
	noMargin := (&Selector{Plat: p, Margin: 0}).Pick(p.MaxLevel(), tfmin, tfmax, 0.030)
	withMargin := (&Selector{Plat: p, Margin: 0.3}).Pick(p.MaxLevel(), tfmin, tfmax, 0.030)
	if withMargin.Index <= noMargin.Index {
		t.Errorf("margin did not raise level: %d vs %d", withMargin.Index, noMargin.Index)
	}
}

func TestPickSwitchOverheadMatters(t *testing.T) {
	// With a budget just at the boundary, accounting for switch time
	// must select a level at least as high as ignoring it.
	p := platform.ODROIDXU3A7()
	tbl := platform.MeasureSwitchTable(p, 200, 0.95, 1)
	job := TwoPoint{Ndep: 14e6, TmemSec: 0.001}
	tfmin := job.TimeAt(p.MinLevel().FreqHz)
	tfmax := job.TimeAt(p.MaxLevel().FreqHz)
	for _, budget := range []float64{0.012, 0.020, 0.035, 0.050, 0.080} {
		with := (&Selector{Plat: p, Switch: tbl, Margin: 0.1}).Pick(p.MaxLevel(), tfmin, tfmax, budget)
		without := (&Selector{Plat: p, Margin: 0.1}).Pick(p.MaxLevel(), tfmin, tfmax, budget)
		if with.Index < without.Index {
			t.Errorf("budget %g: switch-aware level %d below switch-blind %d", budget, with.Index, without.Index)
		}
	}
}

func TestPickFromModel(t *testing.T) {
	s := newSelector(0, false)
	p := s.Plat
	job := TwoPoint{Ndep: 7e6, TmemSec: 0.002}
	l := s.PickFromModel(p.MaxLevel(), job, 0.050)
	if got := job.TimeAt(l.FreqHz); got > 0.050 {
		t.Errorf("oracle pick misses budget: %g", got)
	}
	if l.Index > 0 {
		if job.TimeAt(p.Levels[l.Index-1].FreqHz) <= 0.050 {
			t.Errorf("oracle pick not minimal")
		}
	}
}

// Property: Pick always returns a level that, per its own model, meets
// the budget — or the max level when none does.
func TestPickSoundProperty(t *testing.T) {
	s := newSelector(0.10, true)
	p := s.Plat
	f := func(ndepK uint32, memUS uint16, budMS uint16, curIdx uint8) bool {
		job := TwoPoint{Ndep: float64(ndepK%100000) * 1000, TmemSec: float64(memUS%20000) * 1e-6}
		budget := (1 + float64(budMS%100)) * 1e-3
		cur := p.Levels[int(curIdx)%p.NumLevels()]
		tfmin := job.TimeAt(p.MinLevel().FreqHz)
		tfmax := job.TimeAt(p.MaxLevel().FreqHz)
		l := s.Pick(cur, tfmin, tfmax, budget)
		if l.Index == p.MaxLevel().Index {
			return true // fallback is always legal
		}
		eff := budget - s.Switch.Lookup(cur.Index, l.Index)
		return 1.1*job.TimeAt(l.FreqHz) <= eff+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Within one cluster the energy-aware rule agrees with the paper's
// minimum-frequency rule (slower always means less energy per job).
func TestEnergyAwareMatchesMinFreqOnHomogeneousGrid(t *testing.T) {
	p := platform.ODROIDXU3A7()
	plain := &Selector{Plat: p, Margin: 0.1}
	aware := &Selector{Plat: p, Margin: 0.1, EnergyAware: true}
	jobs := []TwoPoint{
		{Ndep: 7e6, TmemSec: 0.002},
		{Ndep: 20e6, TmemSec: 0.001},
		{Ndep: 1e6, TmemSec: 0.0001},
		{Ndep: 40e6, TmemSec: 0.004},
	}
	for _, job := range jobs {
		for _, budget := range []float64{0.02, 0.035, 0.05, 0.1} {
			tfmin := job.TimeAt(p.MinLevel().EffFreqHz())
			tfmax := job.TimeAt(p.MaxLevel().EffFreqHz())
			a := plain.Pick(p.MaxLevel(), tfmin, tfmax, budget)
			b := aware.Pick(p.MaxLevel(), tfmin, tfmax, budget)
			if a.Index != b.Index {
				t.Errorf("job %+v budget %g: plain level %d, aware %d", job, budget, a.Index, b.Index)
			}
		}
	}
}

// Across a cluster boundary the energy-aware rule can prefer a faster
// little-core point over a slower big-core point.
func TestEnergyAwareAvoidsExpensiveBigCorePoint(t *testing.T) {
	p := platform.BigLITTLE()
	aware := &Selector{Plat: p, EnergyAware: true}
	plain := &Selector{Plat: p}
	// A job whose feasibility frontier lands between A15@800MHz
	// (eff 1.33 GHz) and A7@1400MHz (eff 1.40 GHz).
	job := TwoPoint{Ndep: 6.6e7, TmemSec: 0}
	budget := 0.050 // needs eff ≥ 1.32 GHz
	a := plain.PickFromModel(p.MaxLevel(), job, budget)
	b := aware.PickFromModel(p.MaxLevel(), job, budget)
	if a.Cluster != "A15" {
		t.Skipf("frontier did not land on an A15 point (picked %s@%d)", a.Cluster, int(a.FreqHz/1e6))
	}
	if b.Cluster != "A7" {
		t.Errorf("energy-aware picked %s@%d; the A7 point is cheaper", b.Cluster, int(b.FreqHz/1e6))
	}
	// And it must still be feasible.
	if job.TimeAt(b.EffFreqHz()) > budget {
		t.Errorf("energy-aware pick infeasible")
	}
}
