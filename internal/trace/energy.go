package trace

import (
	"repro/internal/obs"
	"repro/internal/platform"
)

// EnergyEstimator returns a per-event energy estimate suitable for
// obs.FleetConfig.EnergyPerJob: when the event names a ByName
// platform, it charges the chosen level's active power over the job's
// measured execution time (the dominant term of the replay engine's
// attribution — predictor, switch, and idle-slack terms need the full
// schedule, which a streamed event does not carry); otherwise it falls
// back to the tracker's frequency-squared proxy. The shared read-only
// power tables make it safe to call from the fleet tracker's shards
// concurrently.
func EnergyEstimator() func(e *obs.DecisionEvent) float64 {
	return func(e *obs.DecisionEvent) float64 {
		if !e.Done {
			return 0
		}
		if pt, ok := platform.PowerTableByName(e.Platform); ok {
			return pt.Active(e.Level) * e.ActualExecSec
		}
		ghz := float64(e.FreqKHz) / 1e6
		return ghz * ghz * e.ActualExecSec
	}
}
