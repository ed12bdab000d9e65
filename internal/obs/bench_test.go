package obs

import (
	"fmt"
	"testing"
)

var benchFleetStatus FleetStatus

// BenchmarkFleetTrackerSnapshot times one Snapshot of a 3000-device
// fleet with 10 completed jobs per device: scoring, class counts,
// sketch quantiles, and the top-K worst devices.
func BenchmarkFleetTrackerSnapshot(b *testing.B) {
	tr := NewFleetTracker(FleetConfig{})
	for j := 0; j < 10; j++ {
		for d := 0; d < 3000; d++ {
			tr.Emit(fleetEvent(fmt.Sprintf("dev-%04d", d), (d+j)%13 == 0, float64(d%9)*0.05))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFleetStatus = tr.Snapshot()
	}
}
