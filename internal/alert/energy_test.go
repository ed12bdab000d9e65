package alert

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// TestEnergyAccounting prices one completed decision by hand — the
// four segments the offline reconstruction charges — and checks the
// meter agrees exactly.
func TestEnergyAccounting(t *testing.T) {
	p := platform.ODROIDXU3A7()
	m := NewEnergyMeter(EnergyConfig{Platform: p})
	e := &obs.DecisionEvent{
		Workload: "sha", Device: "d0",
		TimeSec:   1.0, // idle gap from cursor 0
		FromLevel: 2, Level: 4,
		PredictorSec:  0.001,
		MeasSwitchSec: 0.002,
		Done:          true,
		ActualExecSec: 0.05,
	}
	m.Emit(e)
	lf, _ := p.Level(2)
	lt, _ := p.Level(4)
	wantIdle := p.IdlePower(lf) * 1.0
	wantPred := p.ActivePower(lf) * 0.001
	wantSw := p.SwitchPower(lf, lt) * 0.002
	wantExec := p.ActivePower(lt) * 0.05
	snap := m.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("streams = %d, want 1", len(snap))
	}
	s := snap[0]
	if s.Workload != "sha" || s.Device != "d0" || s.Jobs != 1 || s.OneShots != 0 {
		t.Fatalf("stream identity: %+v", s)
	}
	if !approx(s.IdleJ, wantIdle) || !approx(s.PredictorJ, wantPred) ||
		!approx(s.SwitchJ, wantSw) || !approx(s.ExecJ, wantExec) {
		t.Fatalf("segments idle=%g pred=%g sw=%g exec=%g, want %g/%g/%g/%g",
			s.IdleJ, s.PredictorJ, s.SwitchJ, s.ExecJ, wantIdle, wantPred, wantSw, wantExec)
	}
	want := wantIdle + wantPred + wantSw + wantExec
	if !approx(s.TotalJ, want) || !approx(m.TotalJ(), want) {
		t.Fatalf("total = %g, want %g", s.TotalJ, want)
	}
	if !approx(s.PerJobJ, want) {
		t.Fatalf("per-job = %g, want %g", s.PerJobJ, want)
	}
	if !approx(s.PredictorShare, wantPred/want) {
		t.Fatalf("predictor share = %g, want %g", s.PredictorShare, wantPred/want)
	}
	wantDur := 1.0 + 0.001 + 0.002 + 0.05
	if !approx(s.DurationSec, wantDur) {
		t.Fatalf("duration = %g, want %g", s.DurationSec, wantDur)
	}
}

// TestEnergySwitchFallback mirrors the replay rule: with no measured
// transition time, a level change is priced from the table estimate,
// and a same-level "switch" costs nothing.
func TestEnergySwitchFallback(t *testing.T) {
	p := platform.ODROIDXU3A7()
	m := NewEnergyMeter(EnergyConfig{Platform: p})
	m.Emit(&obs.DecisionEvent{
		Workload: "w", FromLevel: 1, Level: 3,
		SwitchSec: 0.004, Done: true, ActualExecSec: 0.01,
	})
	lf, _ := p.Level(1)
	lt, _ := p.Level(3)
	wantSw := p.SwitchPower(lf, lt) * 0.004
	if s := m.Snapshot()[0]; !approx(s.SwitchJ, wantSw) {
		t.Fatalf("fallback switch = %g, want %g", s.SwitchJ, wantSw)
	}
	m2 := NewEnergyMeter(EnergyConfig{Platform: p})
	m2.Emit(&obs.DecisionEvent{
		Workload: "w", FromLevel: 3, Level: 3,
		SwitchSec: 0.004, Done: true, ActualExecSec: 0.01,
	})
	if s := m2.Snapshot()[0]; s.SwitchJ != 0 {
		t.Fatalf("same-level switch charged %g J", s.SwitchJ)
	}
}

// TestEnergyOneShot prices a serve-tier Done=false decision from its
// prediction and flags the predicted basis.
func TestEnergyOneShot(t *testing.T) {
	p := platform.IntelI7()
	m := NewEnergyMeter(EnergyConfig{Platform: p})
	m.Emit(&obs.DecisionEvent{
		Workload: "mm", Level: 2,
		PredictedExecSec: 0.02,
	})
	lt, _ := p.Level(2)
	want := p.ActivePower(lt) * 0.02
	s := m.Snapshot()[0]
	if s.Jobs != 1 || s.OneShots != 1 {
		t.Fatalf("jobs=%d oneShots=%d, want 1/1", s.Jobs, s.OneShots)
	}
	if !approx(s.ExecJ, want) || !approx(s.PredictedBasisJ, want) {
		t.Fatalf("exec=%g predBasis=%g, want %g", s.ExecJ, s.PredictedBasisJ, want)
	}
}

func TestEnergyUnknownPlatformSkipped(t *testing.T) {
	m := NewEnergyMeter(EnergyConfig{Platform: platform.ODROIDXU3A7()})
	m.Emit(&obs.DecisionEvent{Workload: "w", Platform: "not-a-platform", Done: true, ActualExecSec: 1})
	if got := m.Skipped(); got != 1 {
		t.Fatalf("skipped = %d, want 1", got)
	}
	if got := m.TotalJ(); got != 0 {
		t.Fatalf("unknown platform charged %g J", got)
	}
	// No default platform at all: unnamed events are skipped too.
	m2 := NewEnergyMeter(EnergyConfig{})
	m2.Emit(&obs.DecisionEvent{Workload: "w", Done: true, ActualExecSec: 1})
	if got := m2.Skipped(); got != 1 {
		t.Fatalf("no-default skipped = %d, want 1", got)
	}
	// But a resolvable per-event platform name still meters.
	m2.Emit(&obs.DecisionEvent{Workload: "w2", Platform: "a7", Level: 0, Done: true, ActualExecSec: 1})
	if got := m2.TotalJ(); got <= 0 {
		t.Fatal("named platform not metered")
	}
}

func TestEnergyOverflowFold(t *testing.T) {
	m := NewEnergyMeter(EnergyConfig{Platform: platform.ODROIDXU3A7(), MaxKeys: 2})
	for _, dev := range []string{"d0", "d1", "d2", "d3"} {
		m.Emit(&obs.DecisionEvent{Workload: "w", Device: dev, Level: 0, Done: true, ActualExecSec: 1})
	}
	snap := m.Snapshot()
	if len(snap) != 3 { // d0, d1, overflow
		t.Fatalf("streams = %d, want 3", len(snap))
	}
	var overflow *EnergyStreamStats
	for i := range snap {
		if snap[i].Workload == EnergyOverflowKey {
			overflow = &snap[i]
		}
	}
	if overflow == nil || overflow.Jobs != 2 {
		t.Fatalf("overflow stream = %+v, want 2 folded jobs", overflow)
	}
}

// TestEnergyOverflowPricesPerPlatform: events folded into the overflow
// stream are each priced on their own platform, and one naming an
// unknown platform is skipped rather than priced on whichever platform
// opened the stream.
func TestEnergyOverflowPricesPerPlatform(t *testing.T) {
	m := NewEnergyMeter(EnergyConfig{Platform: platform.ODROIDXU3A7(), MaxKeys: 1})
	for _, ev := range []struct{ dev, plat string }{
		{"d0", "a7"}, {"d1", "x86"}, {"d2", "a7"}, {"d3", "nope"},
	} {
		m.Emit(&obs.DecisionEvent{Workload: "w", Device: ev.dev, Platform: ev.plat,
			Level: 0, FromLevel: 0, Done: true, ActualExecSec: 1})
	}
	a7, x86 := platform.ODROIDXU3A7(), platform.IntelI7()
	want := x86.ActivePower(x86.Levels[0]) + a7.ActivePower(a7.Levels[0])
	var overflow *EnergyStreamStats
	snap := m.Snapshot()
	for i := range snap {
		if snap[i].Workload == EnergyOverflowKey {
			overflow = &snap[i]
		}
	}
	if overflow == nil {
		t.Fatalf("no overflow stream in %+v", snap)
	}
	if overflow.ExecJ != want || overflow.Jobs != 2 {
		t.Errorf("overflow exec %v J over %d jobs, want %v J over 2 (x86 + a7 level 0 for 1 s)",
			overflow.ExecJ, overflow.Jobs, want)
	}
	if got := m.Skipped(); got != 1 {
		t.Errorf("skipped = %d, want 1 (the unknown platform)", got)
	}
}

// TestEnergyBudgetBurn drives a constant-power stream and checks the
// windowed burn converges to watts/budget once MinSamples land.
func TestEnergyBudgetBurn(t *testing.T) {
	p := platform.ODROIDXU3A7()
	lv := p.NumLevels() - 1
	lt, _ := p.Level(lv)
	watts := p.ActivePower(lt)
	budget := watts / 2 // running flat-out at 2× budget
	m := NewEnergyMeter(EnergyConfig{Platform: p, BudgetW: budget, MinSamples: 8})
	cursor := 0.0
	for i := 0; i < 6; i++ {
		m.Emit(&obs.DecisionEvent{Workload: "w", FromLevel: lv, Level: lv,
			TimeSec: cursor, Done: true, ActualExecSec: 0.5})
		cursor += 0.5
	}
	if s := m.Snapshot()[0]; s.FastBurn != 0 || s.SlowBurn != 0 {
		t.Fatalf("burn reported before MinSamples: %+v", s)
	}
	for i := 0; i < 10; i++ {
		m.Emit(&obs.DecisionEvent{Workload: "w", FromLevel: lv, Level: lv,
			TimeSec: cursor, Done: true, ActualExecSec: 0.5})
		cursor += 0.5
	}
	s := m.Snapshot()[0]
	if !approx(s.FastBurn, 2) || !approx(s.SlowBurn, 2) {
		t.Fatalf("burn fast=%g slow=%g, want 2", s.FastBurn, s.SlowBurn)
	}
	if m.BudgetW() != budget {
		t.Fatalf("BudgetW = %g, want %g", m.BudgetW(), budget)
	}
}

func TestEnergyLevelClamp(t *testing.T) {
	p := platform.ODROIDXU3A7()
	m := NewEnergyMeter(EnergyConfig{Platform: p})
	// Out-of-range levels clamp to the top instead of panicking.
	m.Emit(&obs.DecisionEvent{Workload: "w", FromLevel: 99, Level: -3, Done: true, ActualExecSec: 1})
	top := p.MaxLevel()
	if s := m.Snapshot()[0]; !approx(s.ExecJ, p.ActivePower(top)*1) {
		t.Fatalf("clamped exec = %g, want %g", s.ExecJ, p.ActivePower(top))
	}
}
