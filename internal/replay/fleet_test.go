package replay_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// fleetTrace simulates a small heterogeneous fleet and returns its
// binary trace decoded back to events, plus the simulation result.
func fleetTrace(t testing.TB) ([]obs.DecisionEvent, *fleet.Result) {
	t.Helper()
	return simulateFleet(t, fleet.Config{
		Devices:   6,
		Platforms: []string{"a7", "x86"},
		Mix:       []fleet.MixEntry{{Workload: "sha", Weight: 1}},
		Governor:  "prediction",
		Jobs:      12,
		Seed:      11,
	})
}

// simulateFleet runs cfg through a binary trace and decodes it back
// to events, plus the simulation result.
func simulateFleet(t testing.TB, cfg fleet.Config) ([]obs.DecisionEvent, *fleet.Result) {
	t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	cfg.Sink = bw
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// TestFleetReplayMatchesSingleDevice is the acceptance bound: each
// device's traced energy and margin sweep in the fleet report must
// equal a standalone single-device replay of the same events exactly
// (same code path, same switch table), and the traced energy must stay
// within the existing <=1% cross-validation bound of the simulator's
// energy for that device. Only the margin sweep reads the switch
// table, so it is what catches a fleet table measured from a seed Run
// would not use; seed 0 checks the fleet defaults it as Run does.
func TestFleetReplayMatchesSingleDevice(t *testing.T) {
	events, simRes := fleetTrace(t)
	simEnergy := map[string]float64{}
	for _, d := range simRes.PerDevice {
		simEnergy[d.Spec.ID] = d.EnergyJ
	}
	for _, seed := range []int64{0, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fr, err := replay.RunFleet(events, replay.FleetOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if fr.Devices != 6 || len(fr.PerDevice) != 6 {
				t.Fatalf("fleet replay covers %d devices, want 6", fr.Devices)
			}
			for _, d := range fr.PerDevice {
				// Standalone single-device replay over the same events.
				var devEvents []obs.DecisionEvent
				for _, e := range events {
					if e.Device == d.ID {
						devEvents = append(devEvents, e)
					}
				}
				plat, err := platform.ByName(d.Platform)
				if err != nil {
					t.Fatal(err)
				}
				single, err := replay.Run(devEvents, replay.Options{Plat: plat, Seed: seed})
				if err != nil {
					t.Fatalf("device %s: %v", d.ID, err)
				}
				var singleEnergy float64
				var singleMisses int
				marginEnergy := make([]float64, len(fr.Margins))
				marginMisses := make([]int, len(fr.Margins))
				for _, g := range single.Groups {
					singleEnergy += g.Traced.EnergyJ
					singleMisses += g.Traced.Misses
					for mi, m := range fr.Margins {
						if len(g.MarginSweep) == 0 {
							marginEnergy[mi] += g.Traced.EnergyJ
							marginMisses[mi] += g.Traced.Misses
							continue
						}
						if g.MarginSweep[mi].Param != m.Margin {
							t.Fatalf("device %s: single-device sweep point %d is margin %v, fleet's is %v",
								d.ID, mi, g.MarginSweep[mi].Param, m.Margin)
						}
						marginEnergy[mi] += g.MarginSweep[mi].EnergyJ
						marginMisses[mi] += g.MarginSweep[mi].Misses
					}
				}
				if d.TracedEnergyJ != singleEnergy || d.TracedMisses != singleMisses {
					t.Fatalf("device %s: fleet traced {%v J, %d misses} != single-device replay {%v J, %d misses}",
						d.ID, d.TracedEnergyJ, d.TracedMisses, singleEnergy, singleMisses)
				}
				for mi, m := range fr.Margins {
					if d.MarginEnergyJ[mi] != marginEnergy[mi] || d.MarginMisses[mi] != marginMisses[mi] {
						t.Fatalf("device %s margin %v: fleet {%v J, %d misses} != single-device replay {%v J, %d misses}",
							d.ID, m.Margin, d.MarginEnergyJ[mi], d.MarginMisses[mi], marginEnergy[mi], marginMisses[mi])
					}
				}
				// And the reconstruction stays within 1% of the simulator.
				sim := simEnergy[d.ID]
				if sim == 0 {
					t.Fatalf("device %s missing from simulation result", d.ID)
				}
				if rel := math.Abs(d.TracedEnergyJ-sim) / sim; rel > 0.01 {
					t.Fatalf("device %s: replayed %v J vs simulated %v J (%.2f%% off, bound 1%%)",
						d.ID, d.TracedEnergyJ, sim, 100*rel)
				}
			}

			// Fleet totals are the per-device sums.
			var sumE float64
			for _, d := range fr.PerDevice {
				sumE += d.TracedEnergyJ
			}
			if math.Abs(sumE-fr.TracedEnergyJ) > 1e-9 {
				t.Fatalf("fleet traced energy %v != per-device sum %v", fr.TracedEnergyJ, sumE)
			}
		})
	}
}

func TestFleetReplayMarginSweep(t *testing.T) {
	events, _ := fleetTrace(t)
	margins := []float64{0, 0.10, 0.30}
	fr, err := replay.RunFleet(events, replay.FleetOptions{Seed: 1, Margins: margins})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Margins) != len(margins) {
		t.Fatalf("sweep has %d points, want %d", len(fr.Margins), len(margins))
	}
	for i, m := range fr.Margins {
		if m.Margin != margins[i] {
			t.Fatalf("sweep point %d is margin %v, want %v", i, m.Margin, margins[i])
		}
		if m.EnergyJ <= 0 {
			t.Fatalf("margin %v: non-positive fleet energy %v", m.Margin, m.EnergyJ)
		}
		if !(m.DeltaEnergyPctP50 <= m.DeltaEnergyPctP95 && m.DeltaEnergyPctP95 <= m.DeltaEnergyPctP99) {
			t.Fatalf("margin %v: delta quantiles not ordered: %+v", m.Margin, m)
		}
	}
	// Larger margins run faster (higher levels): fleet energy must not
	// decrease when the margin grows.
	if fr.Margins[2].EnergyJ < fr.Margins[0].EnergyJ {
		t.Fatalf("energy at margin 0.30 (%v J) below margin 0 (%v J)",
			fr.Margins[2].EnergyJ, fr.Margins[0].EnergyJ)
	}
	// Per-platform breakdown covers the whole fleet.
	var devs int
	for _, p := range fr.ByPlatform {
		devs += p.Devices
	}
	if devs != fr.Devices {
		t.Fatalf("platform breakdown covers %d devices, fleet has %d", devs, fr.Devices)
	}
	if p := fr.Margin(0.10); p == nil {
		t.Fatal("Margin(0.10) lookup failed")
	}
}

func TestFleetReplayDeterministic(t *testing.T) {
	events, _ := fleetTrace(t)
	run := func() []byte {
		fr, err := replay.RunFleet(events, replay.FleetOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var text, html bytes.Buffer
		fr.WriteText(&text)
		if err := fr.WriteHTML(&html); err != nil {
			t.Fatal(err)
		}
		return append(text.Bytes(), html.Bytes()...)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("fleet replay reports are not bit-identical across runs")
	}
}

// TestFleetReplayDeviceErrorsNamePackageOnce: a per-device failure
// names the device and its cause behind a single "replay:" prefix.
func TestFleetReplayDeviceErrorsNamePackageOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		event obs.DecisionEvent
		want  string
	}{
		{"unknown platform", obs.DecisionEvent{Platform: "nope"}, `platform: unknown platform "nope"`},
		{"no platform and no fallback", obs.DecisionEvent{}, "carry no platform and no fallback"},
		{"frequency not a level", obs.DecisionEvent{Platform: "a7", FreqKHz: 1}, "1 kHz which is not a level of platform"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.event
			e.Seq, e.Device, e.Workload, e.Done = 1, "d1", "sha", true
			_, err := replay.RunFleet([]obs.DecisionEvent{e}, replay.FleetOptions{})
			if err == nil {
				t.Fatal("expected an error")
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "replay: device d1: ") || strings.Count(msg, "replay:") != 1 ||
				!strings.Contains(msg, tc.want) {
				t.Fatalf("error %q: want one \"replay: device d1: \" prefix and %q", msg, tc.want)
			}
		})
	}
}

func TestFleetReplayRejectsSingleDeviceTrace(t *testing.T) {
	events := []obs.DecisionEvent{{Seq: 1, Workload: "sha", Done: true}}
	if _, err := replay.RunFleet(events, replay.FleetOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no device ID") {
		t.Fatalf("expected no-device-ID error, got %v", err)
	}
	if _, err := replay.RunFleet(nil, replay.FleetOptions{}); err == nil {
		t.Fatal("expected error on empty trace")
	}
}

func TestFleetReplayReportContent(t *testing.T) {
	events, _ := fleetTrace(t)
	fr, err := replay.RunFleet(events, replay.FleetOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	fr.WriteText(&text)
	for _, want := range []string{"fleet replay", "6 devices", "margin", "platform"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	var html bytes.Buffer
	if err := fr.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Margin sweep", "Per-platform breakdown", "<svg"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("html report missing %q", want)
		}
	}
	var js bytes.Buffer
	if err := fr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "\"per_device\"") {
		t.Error("json report missing per_device")
	}
}

// TestFleetReplayByteIdenticalAcrossWorkers: the parallelized RunFleet
// must produce byte-identical text, JSON, and HTML reports at every
// worker count — the in-order commit stage is the only place floats
// are summed and deltas appended.
func TestFleetReplayByteIdenticalAcrossWorkers(t *testing.T) {
	events, _ := fleetTrace(t)
	run := func(workers int) []byte {
		slo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01})
		fr, err := replay.RunFleet(events, replay.FleetOptions{
			Seed: 1, Workers: workers, SLO: slo,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		fr.WriteText(&out)
		if err := fr.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if err := fr.WriteHTML(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		if !bytes.Equal(base, run(workers)) {
			t.Fatalf("reports differ between 1 and %d workers", workers)
		}
	}
}

// TestFleetReplaySLOBurn: with an SLO tracker attached, the result
// carries a fleet burn snapshot keyed by fleet/platform/workload, its
// totals agree with the replayed trace, and the report writers render
// it.
func TestFleetReplaySLOBurn(t *testing.T) {
	events, _ := fleetTrace(t)
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01})
	fr, err := replay.RunFleet(events, replay.FleetOptions{Seed: 1, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.SLO) == 0 || fr.SLOTarget != 0.01 {
		t.Fatalf("missing SLO snapshot: %+v target %v", fr.SLO, fr.SLOTarget)
	}
	var fleetKey *obs.SLOStatus
	platforms, workloads := 0, 0
	for i := range fr.SLO {
		switch {
		case fr.SLO[i].Workload == obs.FleetKey:
			fleetKey = &fr.SLO[i]
		case strings.HasPrefix(fr.SLO[i].Workload, "platform:"):
			platforms++
		case strings.HasPrefix(fr.SLO[i].Workload, "workload:"):
			workloads++
		}
	}
	if fleetKey == nil {
		t.Fatalf("no %q key in SLO snapshot: %+v", obs.FleetKey, fr.SLO)
	}
	// Every completed event flows into the fleet key exactly once.
	completed := 0
	for i := range events {
		if events[i].Done {
			completed++
		}
	}
	if fleetKey.Jobs != int64(completed) {
		t.Errorf("fleet SLO saw %d jobs, trace has %d completed events", fleetKey.Jobs, completed)
	}
	if platforms != 2 || workloads != 1 {
		t.Errorf("got %d platform keys, %d workload keys; want 2 and 1", platforms, workloads)
	}
	var text, html bytes.Buffer
	fr.WriteText(&text)
	if !strings.Contains(text.String(), "slo burn") {
		t.Errorf("text report missing SLO section:\n%s", text.String())
	}
	if err := fr.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "Fleet SLO burn") {
		t.Error("html report missing Fleet SLO burn section")
	}
}
