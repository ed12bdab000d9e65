package alert

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

// TestEnergyMeterZeroAlloc gates the per-decision metering hot path:
// after the first event builds the stream, pricing a decision must not
// allocate. Run by `make alloc-gate`.
func TestEnergyMeterZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	m := NewEnergyMeter(EnergyConfig{Platform: platform.ODROIDXU3A7(), BudgetW: 2})
	e := &obs.DecisionEvent{
		Workload: "sha", Device: "d0",
		FromLevel: 2, Level: 4,
		PredictorSec: 0.0001, SwitchSec: 0.001,
		Done: true, ActualExecSec: 0.01,
	}
	// A fleet event naming its platform prices on the shared table.
	fe := &obs.DecisionEvent{
		Workload: "sha", Device: "dev-1", Platform: "x86",
		FromLevel: 3, Level: 5,
		MeasSwitchSec: 0.0004, Done: true, ActualExecSec: 0.01,
	}
	m.Emit(e) // first events allocate their streams; the steady state must not
	m.Emit(fe)
	allocs := testing.AllocsPerRun(1000, func() {
		e.TimeSec += 0.02
		m.Emit(e)
		fe.TimeSec += 0.02
		m.Emit(fe)
	})
	if allocs != 0 {
		t.Fatalf("EnergyMeter.Emit allocated %.1f/op, want 0", allocs)
	}
}
