package trace

import (
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DecisionEvents converts a simulation result's per-job records into
// completed obs.DecisionEvents, so a finished run can be re-emitted
// through any obs sink (JSONL for dvfstrace, Chrome trace for
// Perfetto). Records carry no feature hash, margin, or effective
// budget — those exist only on the live controller path — but every
// event is Done, and records with a prediction get the signed
// residual.
func DecisionEvents(r *sim.Result) []obs.DecisionEvent {
	events := make([]obs.DecisionEvent, 0, len(r.Records))
	for i, rec := range r.Records {
		e := obs.DecisionEvent{
			Seq:           uint64(i),
			Workload:      r.Workload,
			Governor:      r.Governor,
			Job:           rec.Index,
			TimeSec:       rec.StartSec,
			ReleaseSec:    rec.ReleaseSec,
			DeadlineSec:   rec.DeadlineSec,
			Level:         rec.LevelIdx,
			FromLevel:     rec.FromLevelIdx,
			FreqKHz:       rec.FreqKHz,
			BudgetSec:     r.BudgetSec,
			PredictorSec:  rec.PredictorSec,
			SwitchSec:     rec.SwitchSec,
			MeasSwitchSec: rec.SwitchSec,
			Done:          true,
			ActualExecSec: rec.ExecSec,
			Missed:        rec.Missed,
		}
		// JSON cannot encode NaN: governors that do not predict are
		// marked with Predicted=false instead.
		if !math.IsNaN(rec.PredictedExecSec) {
			e.Predicted = true
			e.PredictedExecSec = rec.PredictedExecSec
			e.ResidualSec = rec.ExecSec - rec.PredictedExecSec
		}
		events = append(events, e)
	}
	return events
}

// MergeDecisions overlays a finished simulation's ground truth onto
// the live controller events captured during the same run. The live
// path knows things only the controller sees — the feature hash, the
// raw tfmin/tfmax, the §3.4 budget ledger, the margin — while the
// simulator knows things only the timeline sees: wall-clock deadline
// misses (the controller's in-process miss bit approximates them),
// the measured jittered switch time, and the level the platform was
// actually at. Replay needs both, so the merged event keeps the live
// decision fields and takes scheduling truth from the record.
//
// Events are matched to records by job index; live events without a
// record (or vice versa) pass through unchanged. Records for jobs the
// controller never traced are appended as record-only events, so the
// merged log always covers every simulated job.
func MergeDecisions(live []obs.DecisionEvent, r *sim.Result) []obs.DecisionEvent {
	recs := make(map[int]*sim.JobRecord, len(r.Records))
	for i := range r.Records {
		recs[r.Records[i].Index] = &r.Records[i]
	}
	out := make([]obs.DecisionEvent, 0, len(r.Records))
	seen := make(map[int]bool, len(live))
	for _, e := range live {
		if rec := recs[e.Job]; rec != nil && !seen[e.Job] {
			seen[e.Job] = true
			e.TimeSec = rec.StartSec
			e.ReleaseSec = rec.ReleaseSec
			e.DeadlineSec = rec.DeadlineSec
			e.FromLevel = rec.FromLevelIdx
			e.MeasSwitchSec = rec.SwitchSec
			e.PredictorSec = rec.PredictorSec
			e.Done = true
			e.ActualExecSec = rec.ExecSec
			e.Missed = rec.Missed
			if e.Predicted {
				e.ResidualSec = rec.ExecSec - e.PredictedExecSec
			}
			// Re-time the span ledger's outcome phases with the measured
			// ground truth: the jittered switch the platform actually
			// performed and the job's simulated execution replace the
			// decision-time estimates (AppendOutcomeSpans is idempotent).
			obs.AppendOutcomeSpans(&e, rec.SwitchSec, rec.ExecSec)
		}
		out = append(out, e)
	}
	fromRecords := DecisionEvents(r)
	for i := range fromRecords {
		if !seen[fromRecords[i].Job] && len(live) > 0 {
			out = append(out, fromRecords[i])
		}
	}
	if len(live) == 0 {
		return fromRecords
	}
	// Re-sequence so the merged log is gap-free and ordered by job.
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}
