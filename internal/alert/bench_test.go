package alert

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

// BenchmarkEnergyMeterEmit times one priced decision (the
// alert.energy layer) on the two streams dvfsd meters: its own served
// one-shot predictions, and a fleet ingest of 3000 a7/x86 devices,
// most of which land in the overflow stream past dvfsd's 64 keys.
func BenchmarkEnergyMeterEmit(b *testing.B) {
	b.Run("served", func(b *testing.B) {
		m := NewEnergyMeter(EnergyConfig{Platform: platform.ODROIDXU3A7()})
		e := &obs.DecisionEvent{
			Workload: "ldecode", FromLevel: 12, Level: 6,
			PredictorSec: 0.0002, SwitchSec: 0.0011,
			PredictedExecSec: 0.03,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.TimeSec += 0.05
			m.Emit(e)
		}
	})
	b.Run("fleet3000", func(b *testing.B) {
		const devices, jobs = 3000, 10
		events := make([]obs.DecisionEvent, 0, devices*jobs)
		for d := 0; d < devices; d++ {
			plat := []string{"a7", "x86"}[d%2]
			for j := 0; j < jobs; j++ {
				events = append(events, obs.DecisionEvent{
					Workload: "sha", Device: fmt.Sprintf("dev-%07d", d), Platform: plat,
					TimeSec: 0.05 * float64(j), FromLevel: (j + 12) % 13, Level: j % 13,
					PredictorSec: 0.0002, MeasSwitchSec: 0.0009,
					Done: true, ActualExecSec: 0.02,
				})
			}
		}
		m := NewEnergyMeter(EnergyConfig{Platform: platform.ODROIDXU3A7()})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Emit(&events[i%len(events)])
		}
	})
}
