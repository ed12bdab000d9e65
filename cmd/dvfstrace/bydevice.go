package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/trace"
)

// runByDevice replays the events through a FleetTracker and reports
// the fleet roll-up: per-class device counts, sketch-backed residual
// quantiles, exact quantiles across devices, the top-N worst devices
// with attribution and the top-N by miss count — the
// offline twin of dvfsd's GET /v1/fleet. Energy uses the platform
// power model when the trace carries resolvable platform names, and
// the f² proxy otherwise (same rule the replayer applies).
func runByDevice(w io.Writer, events []obs.DecisionEvent, topN int, format string) error {
	ft := obs.NewFleetTracker(obs.FleetConfig{
		TopK:         topN,
		EnergyPerJob: trace.EnergyEstimator(),
	})
	for i := range events {
		ft.Emit(&events[i])
	}
	snap := ft.Snapshot()
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	writeByDeviceText(w, &snap)
	return nil
}

func writeByDeviceText(w io.Writer, s *obs.FleetStatus) {
	fmt.Fprintf(w, "fleet    %d devices, %d events, %d completed, %d misses (%.2f%%)\n",
		s.Devices, s.Events, s.Completed, s.Misses, 100*s.MissRate)
	fmt.Fprintf(w, "health   %d healthy, %d degraded, %d outlier, %d fresh\n",
		s.Healthy, s.Degraded, s.Outliers, s.Fresh)
	fmt.Fprintf(w, "residual |r|/pred p50 %.4f  p90 %.4f  p95 %.4f  p99 %.4f\n",
		s.ResidualFrac.P50, s.ResidualFrac.P90, s.ResidualFrac.P95, s.ResidualFrac.P99)
	fmt.Fprintf(w, "devices  miss-ewma p50 %.4f p99 %.4f   energy/job p50 %.4g p99 %.4g J\n",
		s.DeviceMissEWMA.P50, s.DeviceMissEWMA.P99,
		s.DeviceEnergyPerJob.P50, s.DeviceEnergyPerJob.P99)
	if len(s.Worst) > 0 {
		fmt.Fprintf(w, "worst devices by health score:\n")
		fmt.Fprintf(w, "  %-20s %-12s %8s %8s %9s %9s %12s %7s %-9s %s\n",
			"device", "platform", "jobs", "miss %", "ewma", "drift", "energy/job", "score", "class", "cause")
		for _, d := range s.Worst {
			fmt.Fprintf(w, "  %-20s %-12s %8d %8.2f %9.4f %9.4f %12.4g %7.3f %-9s %s\n",
				d.Device, d.Platform, d.Jobs, 100*d.MissRate,
				d.MissEWMA, d.DriftEWMA, d.EnergyPerJob, d.Score, d.Class, d.Attribution)
		}
	}
	if len(s.TopMiss) > 0 {
		fmt.Fprintf(w, "top missing devices:\n")
		for _, d := range s.TopMiss {
			fmt.Fprintf(w, "  %-20s %8d misses of %d jobs\n", d.Device, d.Misses, d.Jobs)
		}
	}
}
