package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	var b strings.Builder
	s := NewJSONLSink(&b)
	events := []DecisionEvent{
		{Workload: "ldecode", Governor: "prediction", Job: 0, TimeSec: 0.1,
			Predicted: true, TFminSec: 0.04, TFmaxSec: 0.01, PredictedExecSec: 0.02,
			Level: 3, FreqKHz: 600000, Margin: 0.1, BudgetSec: 0.05, EffBudgetSec: 0.049,
			PredictorSec: 0.001, SwitchSec: 0.0001, Done: true,
			ActualExecSec: 0.025, ResidualSec: 0.005, FeatHash: 42},
		{Workload: "sha", Job: 1, Level: 12, Done: true, Missed: true},
	}
	for i := range events {
		events[i].Seq = uint64(i)
		s.Emit(&events[i])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip returned %d events", len(got))
	}
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestReadJSONLRejectsMalformedLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"seq\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

// TestChromeTraceGolden pins the Chrome trace-event output: metadata
// thread names per level, one complete event per decision, and a
// global instant event per deadline miss. A completed simulated job
// (DeadlineSec > 0) lasts its measured transition, not the estimate.
func TestChromeTraceGolden(t *testing.T) {
	var b strings.Builder
	s := NewChromeTraceSink(&b)
	s.Emit(&DecisionEvent{Seq: 0, Workload: "ldecode", Job: 0, TimeSec: 0.05,
		Predicted: true, PredictedExecSec: 0.02, Level: 3,
		PredictorSec: 0.001, SwitchSec: 0.0005, Done: true, ActualExecSec: 0.03})
	s.Emit(&DecisionEvent{Seq: 1, Workload: "ldecode", Job: 1, TimeSec: 0.10,
		Level: 3, Done: true, ActualExecSec: 0.01, Missed: true})
	s.Emit(&DecisionEvent{Seq: 2, Workload: "ldecode", Job: 2, TimeSec: 0.15, DeadlineSec: 0.2,
		Predicted: true, PredictedExecSec: 0.02, Level: 3, PredictorSec: 0.001,
		SwitchSec: 0.0005, MeasSwitchSec: 0.0002, Done: true, ActualExecSec: 0.05, Missed: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"level 3"}},` +
		`{"name":"ldecode#0","ph":"X","ts":50000.000,"dur":31500.000,"pid":1,"tid":3,"args":{"decision":` +
		`{"seq":0,"workload":"ldecode","job":0,"time_sec":0.05,"predicted":true,"predicted_exec_sec":0.02,"level":3,"predictor_sec":0.001,"switch_sec":0.0005,"done":true,"actual_exec_sec":0.03}}},` +
		`{"name":"ldecode#1","ph":"X","ts":100000.000,"dur":10000.000,"pid":1,"tid":3,"args":{"decision":` +
		`{"seq":1,"workload":"ldecode","job":1,"time_sec":0.1,"predicted":false,"level":3,"done":true,"actual_exec_sec":0.01,"missed":true}}},` +
		`{"name":"deadline miss ldecode#1","ph":"i","s":"g","ts":110000.000,"pid":1,"tid":3},` +
		`{"name":"ldecode#2","ph":"X","ts":150000.000,"dur":51200.000,"pid":1,"tid":3,"args":{"decision":` +
		`{"seq":2,"workload":"ldecode","job":2,"time_sec":0.15,"deadline_sec":0.2,"predicted":true,"predicted_exec_sec":0.02,"level":3,"predictor_sec":0.001,"switch_sec":0.0005,"meas_switch_sec":0.0002,"done":true,"actual_exec_sec":0.05,"missed":true}}},` +
		`{"name":"deadline miss ldecode#2","ph":"i","s":"g","ts":201200.000,"pid":1,"tid":3}` +
		"]}\n"
	if b.String() != want {
		t.Errorf("chrome trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

func TestMemorySink(t *testing.T) {
	var s MemorySink
	s.Emit(&DecisionEvent{Job: 7})
	if got := s.Events(); len(got) != 1 || got[0].Job != 7 {
		t.Fatalf("events = %+v", got)
	}
}
