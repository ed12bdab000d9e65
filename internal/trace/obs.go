package trace

import (
	"math"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// selfTracing is a governor that traces its own decisions
// (core.Controller): the events it emits carry what only it sees — the
// feature hash, the raw tfmin/tfmax, the §3.4 budget ledger, the
// margin and the span ledger — and each is completed from the
// simulator's outcome before it is emitted.
type selfTracing interface {
	SetTracer(*obs.Tracer)
}

// Simulate runs w under gov (sim.Run) and returns the result with its
// decision log: one completed event per job, in job order, with Seq
// 0…n−1. A governor that traces itself gets a tracer for the run's
// duration, and the log is what it emitted; any other governor's log
// is the record adapter's (DecisionEvents). The whole log is returned
// at once because callers stamp and order it before it reaches their
// sinks.
func Simulate(w *workload.Workload, gov governor.Governor, cfg sim.Config) (*sim.Result, []obs.DecisionEvent, error) {
	g, traced := gov.(selfTracing)
	var mem obs.MemorySink
	if traced {
		// Nothing reads the tracer's ring, so it gets the smallest
		// capacity (two slots).
		g.SetTracer(obs.NewTracer(obs.TracerOptions{RingSize: 1, Sinks: []obs.Sink{&mem}}))
		defer g.SetTracer(nil)
	}
	r, err := sim.Run(w, gov, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !traced {
		return r, DecisionEvents(r), nil
	}
	return r, mem.Events(), nil
}

// DecisionEvents converts a simulation result's per-job records into
// completed obs.DecisionEvents — the decision log of a governor that
// does not trace itself, so a finished run can be re-emitted through
// any obs sink (JSONL for dvfstrace, Chrome trace for Perfetto).
// Records carry no feature hash, margin, or effective budget — those
// exist only on the live controller path — and their switch estimate
// is the measured transition; every event is completed from the
// record's outcome (governor.Outcome.Complete).
func DecisionEvents(r *sim.Result) []obs.DecisionEvent {
	events := make([]obs.DecisionEvent, 0, len(r.Records))
	for i, rec := range r.Records {
		e := obs.DecisionEvent{
			Seq:         uint64(i),
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
		// JSON cannot encode NaN: governors that do not predict are
		// marked with Predicted=false instead.
		if !math.IsNaN(rec.PredictedExecSec) {
			e.Predicted = true
			e.PredictedExecSec = rec.PredictedExecSec
		}
		rec.Complete(&e)
		events = append(events, e)
	}
	return events
}
