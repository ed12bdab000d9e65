package fleet

import (
	"io"
	"testing"

	"repro/internal/trace"
)

var benchFleet *Result

// BenchmarkFleetRun simulates the fleet_replay benchmark's fleet on one
// worker — a7 and x86 devices on a sha:2,rijndael:1,ldecode:1 mix,
// 150 devices × 10 jobs, with the binary trace encoded and discarded —
// so us/job is the serial per-job cost of fleet simulation, controller
// training included.
func BenchmarkFleetRun(b *testing.B) {
	mix, err := ParseMix("sha:2,rijndael:1,ldecode:1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Devices:   150,
		Platforms: []string{"a7", "x86"},
		Mix:       mix,
		Governor:  "prediction",
		Jobs:      10,
		BudgetSec: 0.030,
		Seed:      42,
		Workers:   1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := trace.NewBinaryWriter(io.Discard)
		cfg.Sink = w
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		benchFleet = res
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*cfg.Devices*cfg.Jobs), "us/job")
}
