package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/governor"
	"repro/internal/obs"
)

// TestTracerRecordsResidualInProcess: Decide fills in the decision's
// event, the job's outcome completes it and a tracer publishes it, so
// the signed residual is computed in-process without feeding anything
// back into the predictor.
func TestTracerRecordsResidualInProcess(t *testing.T) {
	c := buildLDecode(t)
	var mem obs.MemorySink
	drift := obs.NewDriftMonitor(obs.DriftConfig{})
	tr := obs.NewTracer(obs.TracerOptions{RingSize: 64, Sinks: []obs.Sink{&mem}, Drift: drift})

	gen := c.W.NewGen(7)
	globals := c.W.FreshGlobals()
	const n = 8
	for i := 0; i < n; i++ {
		job := &governor.Job{
			Index:              i,
			Params:             gen.Next(i),
			Globals:            globals,
			DeadlineSec:        0.050,
			RemainingBudgetSec: 0.050,
		}
		var e obs.DecisionEvent
		dec := c.Decide(job, c.Plat.MaxLevel(), &e)
		// Without an event, the decision is the same.
		if plain := c.JobStart(job, c.Plat.MaxLevel()); !reflect.DeepEqual(plain, dec) {
			t.Fatalf("job %d: JobStart %+v, Decide %+v", i, plain, dec)
		}
		// Complete each job slightly over its prediction, as the
		// simulator would after running it.
		governor.Outcome{PredictorSec: dec.PredictorSec, ExecSec: dec.PredictedExecSec + 0.001}.Complete(&e)
		tr.Emit(e)
	}

	events := mem.Events()
	if len(events) != n {
		t.Fatalf("sink saw %d events, want %d", len(events), n)
	}
	for i, e := range events {
		if !e.Done || !e.Predicted {
			t.Fatalf("event %d not completed with prediction: %+v", i, e)
		}
		if e.Workload != "ldecode" || e.Governor != c.Name() || e.Job != i {
			t.Errorf("event %d identity wrong: %+v", i, e)
		}
		if e.FeatHash == 0 {
			t.Errorf("event %d missing feature hash", i)
		}
		if e.TFminSec < e.TFmaxSec {
			t.Errorf("event %d: t(fmin)=%g < t(fmax)=%g", i, e.TFminSec, e.TFmaxSec)
		}
		if e.PredictorSec <= 0 || e.EffBudgetSec >= e.BudgetSec {
			t.Errorf("event %d budget accounting: %+v", i, e)
		}
		if diff := e.ResidualSec - 0.001; math.Abs(diff) > 1e-12 {
			t.Errorf("event %d residual = %g, want 0.001", i, e.ResidualSec)
		}
		if !e.UnderPredicted() {
			t.Errorf("event %d: positive residual not counted as under-prediction", i)
		}
	}
	// The ring holds the same completed events.
	if snap := tr.Snapshot(0); len(snap) != n || !snap[n-1].Done {
		t.Errorf("ring snapshot: %d events, last done=%v", len(snap), len(snap) > 0 && snap[len(snap)-1].Done)
	}
	// Completed predicted events feed the drift monitor.
	if r := drift.UnderRate("ldecode"); r != 1 {
		t.Errorf("drift under rate = %g, want 1", r)
	}

}
