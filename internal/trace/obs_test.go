package trace

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func TestDecisionEvents(t *testing.T) {
	events := DecisionEvents(sample())
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	e := events[0]
	if e.Workload != "ldecode" || e.Governor != "prediction" || e.Job != 0 {
		t.Errorf("identity fields: %+v", e)
	}
	if !e.Done || !e.Predicted || e.Level != 7 || e.BudgetSec != 0.05 {
		t.Errorf("record mapping: %+v", e)
	}
	if diff := e.ResidualSec - (0.019 - 0.021); math.Abs(diff) > 1e-12 {
		t.Errorf("residual = %g, want -0.002", e.ResidualSec)
	}
	// The NaN-predicted record maps to Predicted=false with zeroed
	// prediction fields, keeping the events JSON-encodable.
	m := events[1]
	if m.Predicted || m.PredictedExecSec != 0 || m.ResidualSec != 0 {
		t.Errorf("NaN record leaked prediction fields: %+v", m)
	}
	if !m.Missed || m.Level != 12 {
		t.Errorf("miss record: %+v", m)
	}
}

func TestMergeDecisions(t *testing.T) {
	r := sample()
	r.Records[0].FromLevelIdx = 12
	// Live controller events: job 0 carries decision-only fields the
	// records lack and a wrong (controller-visible) miss bit; job 1 was
	// never traced live.
	live := []obs.DecisionEvent{{
		Seq: 40, Workload: "ldecode", Governor: "prediction", Job: 0,
		TimeSec: 99, Level: 7, BudgetSec: 0.05, EffBudgetSec: 0.048,
		Margin: 0.1, FeatHash: 0xabcd, TFminSec: 0.08, TFmaxSec: 0.02,
		Predicted: true, PredictedExecSec: 0.021,
		Done: true, ActualExecSec: 0.019, Missed: true,
	}}
	got := MergeDecisions(live, r)
	if len(got) != 2 {
		t.Fatalf("merged %d events, want 2", len(got))
	}
	e := got[0]
	// Live decision fields survive…
	if e.FeatHash != 0xabcd || e.EffBudgetSec != 0.048 || e.Margin != 0.1 || e.TFminSec != 0.08 {
		t.Errorf("live decision fields lost: %+v", e)
	}
	// …while scheduling truth comes from the record.
	if e.TimeSec != 0 || e.Missed || e.FromLevel != 12 || e.DeadlineSec != 0.05 {
		t.Errorf("record truth not applied: %+v", e)
	}
	if math.Abs(e.ResidualSec-(0.019-0.021)) > 1e-12 {
		t.Errorf("residual = %g, want -0.002", e.ResidualSec)
	}
	// The untraced job arrives as a record-only event, re-sequenced.
	if got[1].Job != 1 || !got[1].Missed || got[1].Seq != 1 {
		t.Errorf("record-only event: %+v", got[1])
	}
	if got[0].Seq != 0 {
		t.Errorf("merged log not re-sequenced: %+v", got[0])
	}

	// Empty live input degrades to the pure record adapter.
	if noLive := MergeDecisions(nil, r); len(noLive) != 2 || noLive[0].FeatHash != 0 {
		t.Errorf("empty live merge: %+v", noLive)
	}
}

// TestMergeDecisionsRetimesSpans: the merge replaces the ledger's
// estimated outcome phases (JobEnd's switch estimate and the
// controller-visible execution time) with the simulation's measured
// ground truth, leaving the decision phases untouched.
func TestMergeDecisionsRetimesSpans(t *testing.T) {
	r := sample()
	live := []obs.DecisionEvent{{
		Workload: "ldecode", Governor: "prediction", Job: 0,
		Predicted: true, PredictedExecSec: 0.021,
		Done: true, ActualExecSec: 0.018,
		Spans: []obs.Span{
			{Name: obs.PhaseDecide, StartSec: 0, DurSec: 0.001},
			{Name: obs.PhaseSliceEval, Depth: 1, StartSec: 0, DurSec: 0.0006},
			{Name: obs.PhaseSwitch, StartSec: 0.001, DurSec: 0.005}, // stale estimate
			{Name: obs.PhaseExec, StartSec: 0.006, DurSec: 0.018},   // stale exec
		},
		SpanTotalSec: 0.024,
	}}
	got := MergeDecisions(live, r)
	e := got[0]
	rec := r.Records[0]
	if d := obs.SpanDur(e.Spans, obs.PhaseSwitch); math.Abs(d-rec.SwitchSec) > 1e-12 {
		t.Errorf("switch span %g, want measured %g", d, rec.SwitchSec)
	}
	if d := obs.SpanDur(e.Spans, obs.PhaseExec); math.Abs(d-rec.ExecSec) > 1e-12 {
		t.Errorf("exec span %g, want measured %g", d, rec.ExecSec)
	}
	if d := obs.SpanDur(e.Spans, obs.PhaseDecide); d != 0.001 {
		t.Errorf("decide span %g changed by merge", d)
	}
	if want := 0.001 + rec.SwitchSec + rec.ExecSec; math.Abs(e.SpanTotalSec-want) > 1e-12 {
		t.Errorf("span total %g, want %g", e.SpanTotalSec, want)
	}
	// Span-less live events stay span-less.
	if len(got[1].Spans) != 0 {
		t.Errorf("record-only event grew a ledger: %+v", got[1].Spans)
	}
}
