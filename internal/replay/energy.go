package replay

import "repro/internal/platform"

// reconstruct rebuilds the energy the traced policy actually spent,
// segment by segment, the way the simulator's meter integrated it:
//
//	idle gap before the job      IdlePower(from-level)   × gap
//	predictor slice              ActivePower(from-level) × predictor time
//	DVFS transition              SwitchPower(from, to)   × measured latency
//	job execution                ActivePower(level)      × measured time
//	final drain to the horizon   IdlePower(last level)   × remainder
//
// For job-triggered governors on the default simulator configuration
// every quantity on the right is recorded in the trace, so the total
// matches sim.Result.EnergyJ to floating-point round-off — the
// cross-validation test asserts within 1%. Where the trace cannot
// carry a segment (inter-job idle-drop switches, mid-job sampling
// transitions) the group's Approx list says so.
func reconstruct(g *group, pt *platform.PowerTable) Outcome {
	var out Outcome
	levels := map[int]int{}

	var tl platform.Timeline
	for _, j := range g.jobs {
		levels[j.level]++
		tl.IdleUntil(pt, j.start, j.from)
		sw := j.measSwitchSec
		if sw == 0 && j.level != j.from {
			// Old logs carry only the table estimate; better than
			// pricing the transition at zero.
			sw = j.switchEstSec
		}
		tl.Job(pt, j.from, j.level, j.predictorSec, sw, j.actual)
		if j.missed {
			out.Misses++
		}
	}

	// The simulator charges every run the same wall-clock horizon:
	// the last release plus one period.
	if n := len(g.jobs); n > 0 {
		tl.Drain(pt, g.jobs[n-1].release+g.period, g.jobs[n-1].level)
	}

	out.Breakdown = tl.Breakdown
	out.EnergyJ = tl.Total()
	out.DurationSec = tl.Now
	if len(g.jobs) > 0 {
		out.MissRate = float64(out.Misses) / float64(len(g.jobs))
	}
	out.Levels = levelOccupancy(levels, len(g.jobs))
	return out
}
