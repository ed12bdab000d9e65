package core

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/obs"
)

// TestTracerRecordsResidualInProcess exercises satellite (b): with a
// tracer attached, JobStart stages a DecisionEvent and JobEnd completes
// it with the actual execution time, so the signed residual is computed
// in-process without feeding anything back into the predictor.
func TestTracerRecordsResidualInProcess(t *testing.T) {
	c := buildLDecode(t)
	var mem obs.MemorySink
	drift := obs.NewDriftMonitor(obs.DriftConfig{})
	tr := obs.NewTracer(obs.TracerOptions{RingSize: 64, Sinks: []obs.Sink{&mem}, Drift: drift})
	c.SetTracer(tr)
	if c.Tracer() != tr {
		t.Fatal("Tracer() does not return the attached tracer")
	}

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
		dec := c.JobStart(job, c.Plat.MaxLevel())
		// Complete each job slightly over its prediction, as the
		// simulator would after running it.
		c.JobEnd(job, dec.PredictedExecSec+0.001)
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

	// JobEnd for an unknown job (or after detach) must be a no-op.
	c.JobEnd(&governor.Job{Index: 999}, 0.01)
	c.SetTracer(nil)
	c.JobEnd(&governor.Job{Index: 0}, 0.01)
	if got := len(mem.Events()); got != n {
		t.Errorf("stray JobEnd published events: %d", got)
	}
}

// TestSpanLedgerNesting checks the tentpole invariants of the per-phase
// span ledger on in-process decisions: every traced decision carries a
// decide span whose children (slice eval, model predict, level select)
// nest inside it and sum to no more than the parent, the outcome spans
// (dvfs switch, job exec) carry the event's own accounting, and the
// top-level spans tile [0, SpanTotalSec] exactly.
func TestSpanLedgerNesting(t *testing.T) {
	c := buildLDecode(t)
	var mem obs.MemorySink
	c.SetTracer(obs.NewTracer(obs.TracerOptions{RingSize: 64, Sinks: []obs.Sink{&mem}}))

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
		dec := c.JobStart(job, c.Plat.MaxLevel())
		c.JobEnd(job, dec.PredictedExecSec+0.001)
	}

	events := mem.Events()
	if len(events) != n {
		t.Fatalf("sink saw %d events, want %d", len(events), n)
	}
	for i, e := range events {
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
		// Outcome spans reflect the event's own accounting, and the
		// top-level spans tile [0, SpanTotalSec].
		if d := obs.SpanDur(e.Spans, obs.PhaseSwitch); math.Abs(d-e.SwitchSec) > eps {
			t.Errorf("event %d: switch span %g != SwitchSec %g", i, d, e.SwitchSec)
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

// TestSpanSampling checks that SetSpanSampling(k) keeps the decision
// path and events flowing while attaching a ledger to only every k-th
// decision.
func TestSpanSampling(t *testing.T) {
	c := buildLDecode(t)
	var mem obs.MemorySink
	c.SetTracer(obs.NewTracer(obs.TracerOptions{RingSize: 64, Sinks: []obs.Sink{&mem}}))
	c.SetSpanSampling(4)

	gen := c.W.NewGen(7)
	globals := c.W.FreshGlobals()
	const n = 16
	for i := 0; i < n; i++ {
		job := &governor.Job{
			Index: i, Params: gen.Next(i), Globals: globals,
			DeadlineSec: 0.050, RemainingBudgetSec: 0.050,
		}
		dec := c.JobStart(job, c.Plat.MaxLevel())
		c.JobEnd(job, dec.PredictedExecSec+0.001)
	}
	events := mem.Events()
	if len(events) != n {
		t.Fatalf("sink saw %d events, want %d", len(events), n)
	}
	withSpans := 0
	for _, e := range events {
		if len(e.Spans) > 0 {
			withSpans++
		}
	}
	if want := n / 4; withSpans != want {
		t.Errorf("sampled spans on %d/%d events, want %d", withSpans, n, want)
	}
}
