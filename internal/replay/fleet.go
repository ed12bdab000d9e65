// Fleet-wide counterfactual replay: the same per-job energy
// reconstruction and margin what-ifs as Run, executed per device over
// a fleet trace and aggregated into population distributions. This is
// the question the single-device engine cannot answer: "what does a
// 5% margin cut cost in deadline misses across the fleet?" — the
// answer is a distribution over devices (some devices have headroom,
// some are already missing), not a single delta.
package replay

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/platform"
	"repro/internal/stats"
)

// FleetOptions configures a fleet replay.
type FleetOptions struct {
	// Plat is the fallback platform for events that do not carry a
	// Platform field (single-platform fleets, older traces). Events
	// that name their platform resolve it per device.
	Plat *platform.Platform
	// Seed, Rho, TracedAlpha: as in Options.
	Seed        int64
	Rho         float64
	TracedAlpha float64
	// Margins is the fleet-wide margin sweep; nil → Options' default.
	Margins []float64
	// Workers bounds per-device replay concurrency; zero selects
	// runtime.GOMAXPROCS. The result is byte-identical across worker
	// counts: devices replay in parallel but commit in sorted-ID order
	// (the fleet engine's reorder-buffer pattern), so every float sum
	// and every report byte is fixed by the trace alone.
	Workers int
	// SLO, when non-nil, receives every completed replayed event
	// (obs.SLOTracker.ObserveEvent keying: fleet / platform:* /
	// workload:*), fed in sorted-device order from the commit stage —
	// fleet-level burn tracking over replayed traces.
	SLO *obs.SLOTracker
}

// FleetDeviceResult is one device's replay, reduced to what the fleet
// aggregation needs.
type FleetDeviceResult struct {
	ID        string `json:"id"`
	Platform  string `json:"platform"`
	Workload  string `json:"workload"`
	Jobs      int    `json:"jobs"`
	Predicted int    `json:"predicted"`
	// TracedEnergyJ and TracedMisses reconstruct what the device
	// actually spent — identical to a single-device replay.Run over
	// the same events (the fleet engine runs Run's per-device body).
	TracedEnergyJ float64 `json:"traced_energy_j"`
	TracedMisses  int     `json:"traced_misses"`
	// MarginEnergyJ and MarginMisses align index-for-index with
	// FleetReplayResult.Margins. Devices without predictions replay
	// unchanged at every margin (margins only move predicted jobs).
	MarginEnergyJ []float64 `json:"margin_energy_j"`
	MarginMisses  []int     `json:"margin_misses"`
}

// FleetMarginPoint is one margin setting's fleet-level outcome.
type FleetMarginPoint struct {
	Margin float64 `json:"margin"`
	// EnergyJ and Misses are fleet totals at this margin; MissRate is
	// over all replayed jobs.
	EnergyJ  float64 `json:"energy_j"`
	Misses   int     `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	// DeltaEnergyPct* are quantiles of the per-device energy change vs
	// that device's traced reconstruction, in percent (negative =
	// cheaper than traced).
	DeltaEnergyPctP50 float64 `json:"delta_energy_pct_p50"`
	DeltaEnergyPctP95 float64 `json:"delta_energy_pct_p95"`
	DeltaEnergyPctP99 float64 `json:"delta_energy_pct_p99"`
	// DeltaMissPts is the fleet miss-rate change vs traced, in
	// percentage points.
	DeltaMissPts float64 `json:"delta_miss_pts"`
}

// FleetPlatformResult breaks the traced reconstruction and the margin
// sweep down by platform.
type FleetPlatformResult struct {
	Platform      string  `json:"platform"`
	Devices       int     `json:"devices"`
	Jobs          int     `json:"jobs"`
	TracedEnergyJ float64 `json:"traced_energy_j"`
	TracedMisses  int     `json:"traced_misses"`
	// MarginEnergyJ/MarginMisses align with the fleet Margins.
	MarginEnergyJ []float64 `json:"margin_energy_j"`
	MarginMisses  []int     `json:"margin_misses"`
}

// FleetReplayResult is a fleet-wide counterfactual analysis.
type FleetReplayResult struct {
	Devices int `json:"devices"`
	Events  int `json:"events"`
	Skipped int `json:"skipped"`
	Jobs    int `json:"jobs"`
	// TracedEnergyJ/TracedMisses/TracedMissRate total the per-device
	// reconstructions.
	TracedEnergyJ  float64 `json:"traced_energy_j"`
	TracedMisses   int     `json:"traced_misses"`
	TracedMissRate float64 `json:"traced_miss_rate"`
	// Margins is the sweep, ascending by margin.
	Margins []FleetMarginPoint `json:"margins"`
	// ByPlatform is sorted by platform name.
	ByPlatform []FleetPlatformResult `json:"by_platform"`
	// PerDevice is sorted by device ID.
	PerDevice []FleetDeviceResult `json:"per_device"`
	// SLO is the fleet burn-rate snapshot over the replayed trace
	// (fleet / platform:* / workload:* keys), present when
	// FleetOptions.SLO was set. SLOTarget is that tracker's objective.
	SLO       []obs.SLOStatus `json:"slo,omitempty"`
	SLOTarget float64         `json:"slo_target,omitempty"`
}

// Margin returns the sweep point for the given margin (nil if absent).
func (r *FleetReplayResult) Margin(m float64) *FleetMarginPoint {
	for i := range r.Margins {
		if r.Margins[i].Margin == m {
			return &r.Margins[i]
		}
	}
	return nil
}

// RunFleet replays a fleet trace device by device and aggregates the
// margin sweep into fleet distributions. Events are partitioned by
// their Device field; devices are processed in sorted-ID order, so the
// result is deterministic regardless of trace interleaving. An event
// with no Device is an error — single-device traces belong to Run.
func RunFleet(events []obs.DecisionEvent, opts FleetOptions) (*FleetReplayResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: empty fleet trace")
	}
	// devOpts is every device's replay configuration, defaulted once
	// exactly as Run defaults it, so each device's result is the one a
	// single-device Run over its events returns.
	devOpts := Options{
		Seed:        opts.Seed,
		Rho:         opts.Rho,
		Margins:     opts.Margins,
		Alphas:      []float64{}, // fleet sweeps margins only
		TracedAlpha: opts.TracedAlpha,
	}.withDefaults()
	margins := devOpts.Margins

	byDevice := map[string][]obs.DecisionEvent{}
	var ids []string
	for _, e := range events {
		if e.Device == "" {
			return nil, fmt.Errorf("replay: event seq %d has no device ID; not a fleet trace (replay it single-device instead)", e.Seq)
		}
		if _, ok := byDevice[e.Device]; !ok {
			ids = append(ids, e.Device)
		}
		byDevice[e.Device] = append(byDevice[e.Device], e)
	}
	sort.Strings(ids)
	longest := 0
	for _, devEvents := range byDevice {
		longest = max(longest, len(devEvents))
	}
	jitter := switchJitter(devOpts.Seed, longest)

	plats := map[string]*platform.Platform{}
	resolve := func(name string) (*platform.Platform, error) {
		if name == "" {
			if opts.Plat == nil {
				return nil, fmt.Errorf("trace events carry no platform and no fallback was given")
			}
			return opts.Plat, nil
		}
		if p, ok := plats[name]; ok {
			return p, nil
		}
		p, err := platform.ByName(name)
		if err != nil {
			return nil, err
		}
		plats[name] = p
		return p, nil
	}
	// Resolve every device's platform, and build each distinct
	// platform's tables, serially before the pool starts: the memo maps
	// stay single-threaded, resolution errors surface at the same
	// device regardless of worker count, and workers only read the
	// tables.
	devPlats := make([]*platform.Platform, len(ids))
	devTables := make([]tables, len(ids))
	platTables := map[*platform.Platform]tables{}
	for i, id := range ids {
		p, err := resolve(byDevice[id][0].Platform)
		if err != nil {
			return nil, fmt.Errorf("replay: device %s: %w", id, err)
		}
		tb, ok := platTables[p]
		if !ok {
			tb = newTables(p, devOpts.Seed)
			tb.jitter = jitter
			platTables[p] = tb
		}
		devPlats[i], devTables[i] = p, tb
	}

	out := &FleetReplayResult{Devices: len(ids), Events: len(events)}
	byPlat := map[string]*FleetPlatformResult{}
	// deltas[mi] collects each device's energy delta (percent vs its
	// own traced reconstruction) at margin mi, appended in device order
	// by the commit stage.
	deltas := make([][]float64, len(margins))

	commit := func(i int, r *Result) {
		id := ids[i]
		devEvents := byDevice[id]
		plat := devPlats[i]
		d := FleetDeviceResult{
			ID:            id,
			Platform:      devEvents[0].Platform,
			MarginEnergyJ: make([]float64, len(margins)),
			MarginMisses:  make([]int, len(margins)),
		}
		if d.Platform == "" {
			d.Platform = plat.Name
		}
		for gi := range r.Groups {
			g := &r.Groups[gi]
			if d.Workload == "" {
				d.Workload = g.Workload
			}
			d.Jobs += g.Jobs
			d.Predicted += g.Predicted
			d.TracedEnergyJ += g.Traced.EnergyJ
			d.TracedMisses += g.Traced.Misses
			for mi := range margins {
				if len(g.MarginSweep) == len(margins) {
					d.MarginEnergyJ[mi] += g.MarginSweep[mi].EnergyJ
					d.MarginMisses[mi] += g.MarginSweep[mi].Misses
				} else {
					// No predictions in this group: the margin knob does
					// not exist for it; it replays unchanged.
					d.MarginEnergyJ[mi] += g.Traced.EnergyJ
					d.MarginMisses[mi] += g.Traced.Misses
				}
			}
		}
		out.Skipped += r.Skipped
		out.Jobs += d.Jobs
		out.TracedEnergyJ += d.TracedEnergyJ
		out.TracedMisses += d.TracedMisses

		pp, ok := byPlat[d.Platform]
		if !ok {
			pp = &FleetPlatformResult{
				Platform:      d.Platform,
				MarginEnergyJ: make([]float64, len(margins)),
				MarginMisses:  make([]int, len(margins)),
			}
			byPlat[d.Platform] = pp
		}
		pp.Devices++
		pp.Jobs += d.Jobs
		pp.TracedEnergyJ += d.TracedEnergyJ
		pp.TracedMisses += d.TracedMisses
		for mi := range margins {
			pp.MarginEnergyJ[mi] += d.MarginEnergyJ[mi]
			pp.MarginMisses[mi] += d.MarginMisses[mi]
			if d.TracedEnergyJ > 0 {
				deltas[mi] = append(deltas[mi],
					100*(d.MarginEnergyJ[mi]-d.TracedEnergyJ)/d.TracedEnergyJ)
			}
		}
		out.PerDevice = append(out.PerDevice, d)
		if opts.SLO != nil {
			for ei := range devEvents {
				opts.SLO.ObserveEvent(&devEvents[ei])
			}
		}
	}

	// Workers replay devices out of order; the commit stage runs in
	// sorted-ID order, so every float sum and delta — and every derived
	// report byte — is identical across worker counts.
	err := ordered.Run(len(ids), opts.Workers, func(i int) (*Result, error) {
		o := devOpts
		o.Plat = devPlats[i]
		r, err := replayDevice(byDevice[ids[i]], o, devTables[i])
		if err != nil {
			return nil, fmt.Errorf("replay: device %s: %w", ids[i], err)
		}
		return r, nil
	}, commit)
	if err != nil {
		return nil, err
	}

	if out.Jobs > 0 {
		out.TracedMissRate = float64(out.TracedMisses) / float64(out.Jobs)
	}
	for mi, m := range margins {
		pt := FleetMarginPoint{Margin: m}
		for i := range out.PerDevice {
			pt.EnergyJ += out.PerDevice[i].MarginEnergyJ[mi]
			pt.Misses += out.PerDevice[i].MarginMisses[mi]
		}
		if out.Jobs > 0 {
			pt.MissRate = float64(pt.Misses) / float64(out.Jobs)
		}
		pt.DeltaMissPts = 100 * (pt.MissRate - out.TracedMissRate)
		// Exact, not streamed: a fleet replay already holds every
		// device in memory.
		sort.Float64s(deltas[mi])
		pt.DeltaEnergyPctP50 = stats.QuantileSorted(deltas[mi], 0.50)
		pt.DeltaEnergyPctP95 = stats.QuantileSorted(deltas[mi], 0.95)
		pt.DeltaEnergyPctP99 = stats.QuantileSorted(deltas[mi], 0.99)
		out.Margins = append(out.Margins, pt)
	}
	for _, pp := range byPlat {
		out.ByPlatform = append(out.ByPlatform, *pp)
	}
	sort.Slice(out.ByPlatform, func(i, j int) bool {
		return out.ByPlatform[i].Platform < out.ByPlatform[j].Platform
	})
	if opts.SLO != nil {
		out.SLO = opts.SLO.Snapshot()
		out.SLOTarget = opts.SLO.Target()
	}
	return out, nil
}
