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

// TestSpanLedgerNesting checks the invariants of the per-phase span
// ledger on in-process decisions: every decision event carries a
// decide span whose children (slice eval, model predict, level select)
// nest inside it and sum to no more than the parent, the outcome spans
// (dvfs switch, job exec) carry the measured outcome, and the
// top-level spans tile [0, SpanTotalSec] exactly.
func TestSpanLedgerNesting(t *testing.T) {
	c := buildLDecode(t)
	gen := c.W.NewGen(7)
	globals := c.W.FreshGlobals()
	const n = 8
	events := make([]obs.DecisionEvent, n)
	for i := range events {
		job := &governor.Job{
			Index:              i,
			Params:             gen.Next(i),
			Globals:            globals,
			DeadlineSec:        0.050,
			RemainingBudgetSec: 0.050,
		}
		dec := c.Decide(job, c.Plat.MaxLevel(), &events[i])
		// A measured transition unlike any switch-table estimate.
		governor.Outcome{SwitchSec: 123e-6 * float64(i+1), ExecSec: dec.PredictedExecSec + 0.001}.Complete(&events[i])
	}

	for i, e := range events {
		if e.MeasSwitchSec != 123e-6*float64(i+1) {
			t.Fatalf("event %d: MeasSwitchSec %g, want the outcome's %g", i, e.MeasSwitchSec, 123e-6*float64(i+1))
		}
		if len(e.Spans) == 0 {
			t.Fatalf("event %d carries no span ledger", i)
		}
		decide := obs.SpanDur(e.Spans, obs.PhaseDecide)
		if decide <= 0 {
			t.Fatalf("event %d: no decide span in %+v", i, e.Spans)
		}
		// Children of decide: present, nested inside the parent's window,
		// and summing to no more than the parent (the parent also covers
		// inter-phase glue).
		var childSum float64
		for _, name := range []string{obs.PhaseSliceEval, obs.PhasePredict, obs.PhaseSelect} {
			found := false
			for _, s := range e.Spans {
				if s.Name == name {
					found = true
				}
			}
			if !found {
				t.Fatalf("event %d: missing %s span in %+v", i, name, e.Spans)
			}
			childSum += obs.SpanDur(e.Spans, name)
		}
		const eps = 1e-9
		if childSum > decide+eps {
			t.Errorf("event %d: child phases sum %.9g > decide %.9g", i, childSum, decide)
		}
		for _, s := range e.Spans {
			if s.Depth == 1 && (s.StartSec < -eps || s.EndSec() > decide+eps) {
				t.Errorf("event %d: child span %s [%g,%g] outside decide [0,%g]",
					i, s.Name, s.StartSec, s.EndSec(), decide)
			}
		}
		// Outcome spans carry the measured outcome, and the top-level
		// spans tile [0, SpanTotalSec].
		if d := obs.SpanDur(e.Spans, obs.PhaseSwitch); math.Abs(d-e.MeasSwitchSec) > eps {
			t.Errorf("event %d: switch span %g != MeasSwitchSec %g (estimate %g)", i, d, e.MeasSwitchSec, e.SwitchSec)
		}
		if d := obs.SpanDur(e.Spans, obs.PhaseExec); math.Abs(d-e.ActualExecSec) > eps {
			t.Errorf("event %d: exec span %g != ActualExecSec %g", i, d, e.ActualExecSec)
		}
		var topSum float64
		for _, s := range e.Spans {
			if s.Depth == 0 {
				topSum += s.DurSec
			}
		}
		if e.SpanTotalSec <= 0 || math.Abs(topSum-e.SpanTotalSec) > 1e-6*e.SpanTotalSec+eps {
			t.Errorf("event %d: top-level phases sum %.9g != span total %.9g",
				i, topSum, e.SpanTotalSec)
		}
	}
}
