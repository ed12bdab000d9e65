package alert_test

import (
	"math"
	"testing"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEnergyMeterCrossValidatesReplay is the acceptance check for the
// online meter: streaming a simulator trace through EnergyMeter.Emit
// must reproduce dvfsreplay's offline reconstruction of the same
// events. Both price through platform.Timeline, so they differ only in
// the final idle drain — replay charges idle power out to the
// simulator's horizon (last release plus one period), which an online
// meter cannot know. The exec, predictor and switch components must be
// bit-equal, and the meter's idle plus that drain must equal replay's
// idle exactly.
func TestEnergyMeterCrossValidatesReplay(t *testing.T) {
	for _, c := range []struct{ workload, platform string }{
		{"sha", "a7"},
		{"ldecode", "a7"},
		{"rijndael", "x86"},
		{"uzbl", "biglittle"},
		{"pocketsphinx", "a7"},
	} {
		t.Run(c.workload+"/"+c.platform, func(t *testing.T) {
			w, err := workload.ByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			plat, err := platform.ByName(c.platform)
			if err != nil {
				t.Fatal(err)
			}
			suite := experiments.NewSuiteOn(plat, 1)
			g, err := suite.Governor("prediction", w)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := g.(*core.Controller); !ok {
				t.Fatalf("prediction governor is %T, want *core.Controller", g)
			}
			_, events, err := trace.Simulate(w, g, sim.Config{Plat: suite.Plat, Jobs: 80, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}

			res, err := replay.Run(events, replay.Options{Plat: plat})
			if err != nil {
				t.Fatal(err)
			}
			grp := res.Group(c.workload, "prediction")
			if grp == nil {
				t.Fatalf("replay produced no %s/prediction group", c.workload)
			}
			offline := grp.Traced

			meter := alert.NewEnergyMeter(alert.EnergyConfig{Platform: plat})
			for i := range events {
				meter.Emit(&events[i])
			}
			if sk := meter.Skipped(); sk != 0 {
				t.Fatalf("meter skipped %d events", sk)
			}
			streams := meter.Snapshot()
			if len(streams) != 1 {
				t.Fatalf("meter tracked %d streams, want 1", len(streams))
			}
			live := streams[0]
			if offline.EnergyJ <= 0 {
				t.Fatalf("offline reconstruction reports %g J", offline.EnergyJ)
			}

			for _, seg := range []struct {
				name       string
				live, repl float64
			}{
				{"exec", live.ExecJ, offline.Breakdown.ExecJ},
				{"predictor", live.PredictorJ, offline.Breakdown.PredictorJ},
				{"switch", live.SwitchJ, offline.Breakdown.SwitchJ},
			} {
				if seg.live != seg.repl {
					t.Errorf("%s: live %v J vs replay %v J", seg.name, seg.live, seg.repl)
				}
			}
			// Idle: the meter sees every inter-job gap but not the final
			// drain, priced at the last level's idle power.
			if live.DurationSec > offline.DurationSec {
				t.Errorf("live duration %.6f s exceeds replay horizon %.6f s", live.DurationSec, offline.DurationSec)
			}
			last := events[len(events)-1]
			lastLevel, err := plat.Level(last.Level)
			if err != nil {
				t.Fatal(err)
			}
			drain := plat.IdlePower(lastLevel) * (offline.DurationSec - live.DurationSec)
			if live.IdleJ+drain != offline.Breakdown.IdleJ {
				t.Errorf("idle shortfall is not the horizon drain: live %v + drain %v vs replay %v",
					live.IdleJ, drain, offline.Breakdown.IdleJ)
			}
			// The totals are summed in different orders (per event live,
			// per segment offline), so they agree to round-off only.
			if d := math.Abs((live.TotalJ + drain) - offline.EnergyJ); d > 1e-9*offline.EnergyJ {
				t.Errorf("drain-adjusted total %.12f J vs replay %.12f J", live.TotalJ+drain, offline.EnergyJ)
			}
		})
	}
}
