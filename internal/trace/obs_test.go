package trace

import (
	"math"
	"testing"
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
