package replay_test

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/replay"
)

var (
	benchResult      *replay.Result
	benchFleetResult *replay.FleetReplayResult
)

// BenchmarkRun replays a 200-job sha prediction trace on the A7 board:
// one group, its counterfactual policies, and its margin and α sweeps.
func BenchmarkRun(b *testing.B) {
	_, events := tracedRun(b, "prediction", 200)
	plat := platform.ODROIDXU3A7()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay.Run(events, replay.Options{Plat: plat})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}

// BenchmarkRunFleet replays a 60-device A7/x86 fleet with a three-
// workload mix on one worker, so ms/device is the serial per-device
// cost of fleet replay, switch-table measurement included.
func BenchmarkRunFleet(b *testing.B) {
	const devices = 60
	events, _ := simulateFleet(b, fleet.Config{
		Devices:   devices,
		Platforms: []string{"a7", "x86"},
		Mix: []fleet.MixEntry{
			{Workload: "sha", Weight: 2}, {Workload: "rijndael", Weight: 1}, {Workload: "ldecode", Weight: 1},
		},
		Governor: "prediction",
		Jobs:     10,
		Seed:     42,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := replay.RunFleet(events, replay.FleetOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchFleetResult = fr
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*devices), "ms/device")
}
