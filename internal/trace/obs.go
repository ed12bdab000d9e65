package trace

import (
	"math"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// decider is a governor that describes its own decisions
// (core.Controller): Decide is its JobStart, and fills in e with what
// only the governor sees — the feature hash, the raw tfmin/tfmax, the
// §3.4 budget ledger and the margin.
type decider interface {
	Decide(job *governor.Job, cur platform.Level, e *obs.DecisionEvent) governor.Decision
}

// keeper runs a decider under the simulator and keeps, per job index,
// the event the decider fills in about its own decision.
type keeper struct {
	governor.Governor
	d      decider
	events []obs.DecisionEvent
}

// JobStart implements governor.Governor.
func (k *keeper) JobStart(job *governor.Job, cur platform.Level) governor.Decision {
	for len(k.events) <= job.Index {
		k.events = append(k.events, obs.DecisionEvent{})
	}
	return k.d.Decide(job, cur, &k.events[job.Index])
}

// Simulate runs w under gov (sim.Run) and returns the result with its
// decision log: one completed event per job, in job order, with Seq
// 0…n−1. A governor that describes its own decisions (a decider, such
// as core.Controller) fills in each job's event as it decides; any
// other governor's events carry the job records' fields
// (DecisionEvents). Either way each event is completed from its
// record's outcome (governor.Outcome.Complete), so every duration in
// the log is on the simulated clock and no event carries a span
// ledger. The whole log is returned at once because callers stamp and
// order it before it reaches their sinks.
func Simulate(w *workload.Workload, gov governor.Governor, cfg sim.Config) (*sim.Result, []obs.DecisionEvent, error) {
	var k *keeper
	if d, ok := gov.(decider); ok {
		jobs := cfg.Jobs
		if jobs == 0 {
			jobs = w.EvalJobs // sim.Run's default; only a capacity hint
		}
		k = &keeper{Governor: gov, d: d, events: make([]obs.DecisionEvent, 0, jobs)}
		gov = k
	}
	r, err := sim.Run(w, gov, cfg)
	if err != nil {
		return nil, nil, err
	}
	if k == nil {
		return r, DecisionEvents(r), nil
	}
	return r, decisionLog(r, k.events), nil
}

// DecisionEvents converts a simulation result's per-job records into
// completed obs.DecisionEvents — the decision log of a governor that
// does not describe its own decisions, so a finished run can be
// re-emitted through any obs sink (JSONL for dvfstrace, Chrome trace
// for Perfetto). Records carry no feature hash, margin, or effective
// budget — those exist only on the controller's decision path — and
// their switch estimate is the measured transition.
func DecisionEvents(r *sim.Result) []obs.DecisionEvent {
	return decisionLog(r, nil)
}

// decisionLog builds a run's decision log in one pass over its
// records. Record i's event is kept[i] when kept is non-nil — the
// event the governor filled in for job i, since sim.Run simulates one
// task and its record i is job i — and otherwise the one the record's
// fields give. Each gets Seq i and is completed from the record's
// outcome; kept is reused as the log.
func decisionLog(r *sim.Result, kept []obs.DecisionEvent) []obs.DecisionEvent {
	events := kept
	if events == nil {
		events = make([]obs.DecisionEvent, len(r.Records))
	}
	for i, rec := range r.Records {
		e := &events[i]
		if kept == nil {
			*e = obs.DecisionEvent{
				Workload:    r.Workload,
				Governor:    r.Governor,
				Job:         rec.Index,
				ReleaseSec:  rec.ReleaseSec,
				DeadlineSec: rec.DeadlineSec,
				Level:       rec.LevelIdx,
				FreqKHz:     rec.FreqKHz,
				BudgetSec:   r.BudgetSec,
				SwitchSec:   rec.SwitchSec,
			}
			// JSON cannot encode NaN: governors that do not predict
			// are marked with Predicted=false instead.
			if !math.IsNaN(rec.PredictedExecSec) {
				e.Predicted = true
				e.PredictedExecSec = rec.PredictedExecSec
			}
		}
		e.Seq = uint64(i)
		rec.Complete(e)
	}
	return events[:len(r.Records)]
}
