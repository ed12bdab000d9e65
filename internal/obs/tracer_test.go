package obs

import (
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestTracerEmitPublishes(t *testing.T) {
	var mem MemorySink
	drift := NewDriftMonitor(DriftConfig{})
	tr := NewTracer(TracerOptions{RingSize: 16, Sinks: []Sink{&mem}, Drift: drift})

	// A completed decision: the ring and the sinks get it with its
	// sequence number, and its residual feeds the drift monitor.
	tr.Emit(DecisionEvent{
		Workload: "ldecode", Governor: "prediction", Job: 3,
		Predicted: true, PredictedExecSec: 0.020, EffBudgetSec: 0.049,
		Done: true, ActualExecSec: 0.025, ResidualSec: 0.005,
	})
	events := mem.Events()
	if len(events) != 1 {
		t.Fatalf("sink saw %d events", len(events))
	}
	e := events[0]
	if !e.Done || e.ActualExecSec != 0.025 || e.Seq != 0 {
		t.Errorf("published event = %+v", e)
	}
	if snap := tr.Snapshot(0); len(snap) != 1 || snap[0].Seq != e.Seq {
		t.Errorf("ring snapshot = %+v", snap)
	}
	if r := drift.UnderRate("ldecode"); r != 1 {
		t.Errorf("drift monitor under rate = %g, want 1", r)
	}

	// One-shot emission (the serving path): published immediately,
	// never completed, no drift feed.
	tr.Emit(DecisionEvent{Workload: "sha", Predicted: true, PredictedExecSec: 0.1})
	if tr.Emitted() != 2 {
		t.Errorf("emitted = %d, want 2", tr.Emitted())
	}
	if got := mem.Events(); len(got) != 2 || got[1].Seq != 1 {
		t.Errorf("second event = %+v", got)
	}
	if got := drift.UnderRate("sha"); got == got { // !NaN
		t.Errorf("incomplete event fed the drift monitor: %g", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 128, Sinks: []Sink{&MemorySink{}}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				tr.Emit(DecisionEvent{Workload: "sha", Job: w*250 + i, Predicted: true, Done: true, ActualExecSec: 0.01})
			}
		}(w)
	}
	wg.Wait()
	if tr.Emitted() != 2000 {
		t.Fatalf("emitted = %d", tr.Emitted())
	}
}

func TestLogFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	lf := RegisterLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lf.Logger(io.Discard); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}

	fs2 := flag.NewFlagSet("x", flag.ContinueOnError)
	lf2 := RegisterLogFlags(fs2)
	if err := fs2.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lf2.Logger(io.Discard); err == nil || !strings.Contains(err.Error(), "unknown log level") {
		t.Fatalf("bad level accepted: %v", err)
	}
	fs3 := flag.NewFlagSet("x", flag.ContinueOnError)
	lf3 := RegisterLogFlags(fs3)
	if err := fs3.Parse([]string{"-log-format", "yaml"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lf3.Logger(io.Discard); err == nil || !strings.Contains(err.Error(), "unknown log format") {
		t.Fatalf("bad format accepted: %v", err)
	}
}

// BenchmarkTracerEmit is the budget-accounting guard: §3.4 subtracts
// the predictor's cost from every job's budget, so instrumentation on
// the decision path must stay well under a microsecond per event.
// `make obs-bench` asserts < 1000 ns/op.
func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(TracerOptions{
		RingSize: 4096,
		Drift:    NewDriftMonitor(DriftConfig{}),
	})
	e := benchEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Job = i
		tr.Emit(e)
	}
}

// benchEvent is a completed prediction-controller decision, as
// governor.Outcome.Complete leaves it.
var benchEvent = DecisionEvent{
	Workload: "ldecode", Governor: "prediction", Predicted: true,
	TFminSec: 0.04, TFmaxSec: 0.01, PredictedExecSec: 0.02,
	Level: 3, BudgetSec: 0.05, EffBudgetSec: 0.049, PredictorSec: 0.001,
	Done: true, ActualExecSec: 0.021, ResidualSec: 0.001,
}

// BenchmarkTracerEmitSpans runs the decision-path emit loop with a
// served ledger's shape, a root and three contiguous sub-phases
// (dvfsd's serve ledger after its ingest phase), captured on every
// event as dvfsd does: four monotonic clock reads (≈40–70 ns each on
// commodity hardware) on top of the bare emit. `make obs-bench` gates
// it by the same absolute < 1000 ns/op §3.4 budget bound.
func BenchmarkTracerEmitSpans(b *testing.B) {
	tr := NewTracer(TracerOptions{
		RingSize: 4096,
		Drift:    NewDriftMonitor(DriftConfig{}),
	})
	e := benchEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewSpanTimer()
		st.Start(PhaseServe)
		st.Start(PhaseLookup)
		st.Next(PhasePredict)
		st.Next(PhaseSelect)
		st.End()
		st.End()
		e.Job = i
		e.Spans, e.SpanTotalSec = st.Finish()
		tr.Emit(e)
	}
}
