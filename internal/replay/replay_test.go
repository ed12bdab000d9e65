package replay_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tracedRun runs one governor on sha and returns the run's decision
// log, as dvfssim writes it.
func tracedRun(t testing.TB, gName string, jobs int) (*sim.Result, []obs.DecisionEvent) {
	t.Helper()
	w, err := workload.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuiteOn(platform.ODROIDXU3A7(), 1)
	g, err := suite.Governor(gName, w)
	if err != nil {
		t.Fatal(err)
	}
	r, events, err := trace.Simulate(w, g, sim.Config{Plat: suite.Plat, Jobs: jobs, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return r, events
}

// The acceptance criterion: replaying a simulator trace reproduces the
// simulator's energy within 1% and its deadline misses exactly, for
// every traced governor family (prediction, static, sampling-feedback).
func TestReplayCrossValidatesAgainstSimulator(t *testing.T) {
	for _, gName := range []string{"prediction", "performance", "powersave", "pid"} {
		t.Run(gName, func(t *testing.T) {
			r, events := tracedRun(t, gName, 80)
			res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7()})
			if err != nil {
				t.Fatal(err)
			}
			g := res.Group("sha", gName)
			if g == nil {
				t.Fatalf("no group for sha/%s in %+v", gName, res.Groups)
			}
			if g.Jobs != len(r.Records) {
				t.Fatalf("replayed %d jobs, sim ran %d", g.Jobs, len(r.Records))
			}
			relErr := math.Abs(g.Traced.EnergyJ-r.EnergyJ) / r.EnergyJ
			if relErr > 0.01 {
				t.Errorf("reconstructed energy %.6f J vs simulated %.6f J: %.2f%% off (want ≤ 1%%)",
					g.Traced.EnergyJ, r.EnergyJ, 100*relErr)
			}
			if g.Traced.Misses != r.Misses {
				t.Errorf("reconstructed misses = %d, simulator counted %d", g.Traced.Misses, r.Misses)
			}
			if len(g.Approx) != 0 {
				t.Errorf("default-config trace flagged approximate: %v", g.Approx)
			}
			// Breakdown components must sum to the total.
			if d := math.Abs(g.Traced.Breakdown.Total() - g.Traced.EnergyJ); d > 1e-9 {
				t.Errorf("breakdown sums to %g, EnergyJ %g", g.Traced.Breakdown.Total(), g.Traced.EnergyJ)
			}
		})
	}
}

func TestReplayOrderingAndCounterfactuals(t *testing.T) {
	_, events := tracedRun(t, "prediction", 80)
	res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7()})
	if err != nil {
		t.Fatal(err)
	}
	if viol := res.CheckOrdering(1); len(viol) != 0 {
		t.Fatalf("ordering violations on a healthy prediction trace: %v", viol)
	}
	g := res.Group("sha", "prediction")
	perf := g.Policy("performance")
	if perf == nil || math.Abs(perf.NormEnergyPct-100) > 1e-9 {
		t.Fatalf("performance policy not the 100%% normalization anchor: %+v", perf)
	}
	if perf.Misses != 0 {
		t.Errorf("performance governor missed %d deadlines in replay", perf.Misses)
	}
	oracle := g.Policy("oracle")
	if oracle == nil || oracle.EnergyJ > g.Traced.EnergyJ*(1+1e-9) {
		t.Errorf("oracle (%.6f J) not ≤ traced (%.6f J)", oracle.EnergyJ, g.Traced.EnergyJ)
	}
	if oracle.Misses != 0 {
		t.Errorf("oracle missed %d deadlines", oracle.Misses)
	}
	// Powersave on a tight budget should trade misses for energy.
	ps := g.Policy("powersave")
	if ps == nil || ps.EnergyJ >= perf.EnergyJ {
		t.Errorf("powersave (%+v) not cheaper than performance (%+v)", ps, perf)
	}
	// The what-if sweeps exist for a predicted group and the margin
	// sweep's energy grows with margin.
	if len(g.MarginSweep) < 2 || len(g.AlphaSweep) < 2 {
		t.Fatalf("sweeps missing: %d margin, %d alpha points", len(g.MarginSweep), len(g.AlphaSweep))
	}
	first, last := g.MarginSweep[0], g.MarginSweep[len(g.MarginSweep)-1]
	if first.EnergyJ > last.EnergyJ {
		t.Errorf("margin sweep energy not increasing: %.6f J @ %.2f vs %.6f J @ %.2f",
			first.EnergyJ, first.Param, last.EnergyJ, last.Param)
	}
}

// Same trace + same seed must reproduce every byte of every artifact.
func TestReplayDeterministic(t *testing.T) {
	_, events := tracedRun(t, "prediction", 60)
	render := func() (string, string, string) {
		res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7(), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var txt, js, html bytes.Buffer
		res.WriteText(&txt)
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteHTML(&html); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String(), html.String()
	}
	t1, j1, h1 := render()
	t2, j2, h2 := render()
	if t1 != t2 {
		t.Error("text report not bit-identical across runs")
	}
	if j1 != j2 {
		t.Error("JSON bench not bit-identical across runs")
	}
	if h1 != h2 {
		t.Error("HTML report not bit-identical across runs")
	}
	if !strings.Contains(t1, "sha / prediction") && !strings.Contains(t1, "sha") {
		t.Errorf("text report missing group header:\n%s", t1)
	}
	if !strings.Contains(h1, "<html") || !strings.Contains(h1, "sha") {
		t.Error("HTML report incomplete")
	}
}

func TestReplayBenchRoundTripAndCompare(t *testing.T) {
	_, events := tracedRun(t, "prediction", 60)
	res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	base, err := replay.ReadBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Self-comparison: no regressions, no notes.
	regs, notes := replay.Compare(res, base, replay.CompareOptions{})
	if len(regs) != 0 || len(notes) != 0 {
		t.Fatalf("self compare: regs=%v notes=%v", regs, notes)
	}
	// Inflate current energy past tolerance → regression.
	worse := *res
	worse.Groups = append([]replay.GroupResult(nil), res.Groups...)
	worse.Groups[0].Traced.EnergyJ *= 1.10
	regs, _ = replay.Compare(&worse, base, replay.CompareOptions{MaxEnergyRegressPct: 5})
	if len(regs) == 0 {
		t.Error("10% energy regression not detected at 5% tolerance")
	}
	// A miss-rate jump is a regression too.
	worse2 := *res
	worse2.Groups = append([]replay.GroupResult(nil), res.Groups...)
	worse2.Groups[0].Traced.MissRate += 0.05
	regs, _ = replay.Compare(&worse2, base, replay.CompareOptions{MaxMissRegressPts: 1})
	if len(regs) == 0 {
		t.Error("5-point miss-rate regression not detected at 1-point tolerance")
	}
	// A group only in the baseline is a note, not a regression.
	fewer := *res
	fewer.Groups = nil
	regs, notes = replay.Compare(&fewer, base, replay.CompareOptions{})
	if len(regs) != 0 || len(notes) == 0 {
		t.Errorf("missing group: regs=%v notes=%v", regs, notes)
	}
}

func TestReplayRejectsWrongPlatform(t *testing.T) {
	_, events := tracedRun(t, "performance", 20)
	_, err := replay.Run(events, replay.Options{Plat: platform.IntelI7()})
	if err == nil {
		t.Fatal("replaying an a7 trace against the x86 platform should fail")
	}
	if msg := err.Error(); strings.Count(msg, "replay:") != 1 || !strings.Contains(msg, "not a level of platform") {
		t.Fatalf("error %q: want one \"replay:\" prefix and the mismatched level", msg)
	}
}

func TestReplaySkipsIncompleteEvents(t *testing.T) {
	_, events := tracedRun(t, "performance", 20)
	// A one-shot serving prediction (not Done) must be skipped, not
	// counted as a job.
	events = append(events, obs.DecisionEvent{
		Workload: "sha", Governor: "performance",
		FreqKHz: events[0].FreqKHz, Level: events[0].Level,
	})
	res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", res.Skipped)
	}
	if g := res.Group("sha", "performance"); g == nil || g.Jobs != 20 {
		t.Errorf("group jobs = %+v, want 20", g)
	}
}
