package obs

import (
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestTracerBeginEndComputesResidual(t *testing.T) {
	var mem MemorySink
	drift := NewDriftMonitor(DriftConfig{})
	tr := NewTracer(TracerOptions{RingSize: 16, Sinks: []Sink{&mem}, Drift: drift})

	p := tr.Begin(DecisionEvent{
		Workload: "ldecode", Governor: "prediction", Job: 3,
		Predicted: true, PredictedExecSec: 0.020, EffBudgetSec: 0.049,
	})
	p.End(0.025, false)

	events := mem.Events()
	if len(events) != 1 {
		t.Fatalf("sink saw %d events", len(events))
	}
	e := events[0]
	if !e.Done || e.ActualExecSec != 0.025 {
		t.Errorf("completion fields wrong: %+v", e)
	}
	if diff := e.ResidualSec - 0.005; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("residual = %g, want 0.005", e.ResidualSec)
	}
	if !e.UnderPredicted() {
		t.Error("positive residual should count as under-prediction")
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
				p := tr.Begin(DecisionEvent{Workload: "sha", Job: w*250 + i, Predicted: true})
				p.End(0.01, false)
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
	e := DecisionEvent{
		Workload: "ldecode", Governor: "prediction", Predicted: true,
		TFminSec: 0.04, TFmaxSec: 0.01, PredictedExecSec: 0.02,
		Level: 3, BudgetSec: 0.05, EffBudgetSec: 0.049, PredictorSec: 0.001,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Job = i
		p := tr.Begin(e)
		p.End(0.021, false)
	}
}

// benchSpans runs the decision-path emit loop with the span ledger the
// in-process controller records: a full capture costs four monotonic
// clock reads (≈40–70 ns each on commodity hardware) on top of the
// bare emit, so `make obs-bench` gates the sampled path (every-16) to
// stay within 20% of BenchmarkTracerEmit while the full path is gated
// by the same absolute < 1000 ns/op §3.4 budget bound.
func benchSpans(b *testing.B, every int) {
	tr := NewTracer(TracerOptions{
		RingSize: 4096,
		Drift:    NewDriftMonitor(DriftConfig{}),
	})
	sampler := NewSpanSampler(every)
	e := DecisionEvent{
		Workload: "ldecode", Governor: "prediction", Predicted: true,
		TFminSec: 0.04, TFmaxSec: 0.01, PredictedExecSec: 0.02,
		Level: 3, BudgetSec: 0.05, EffBudgetSec: 0.049, PredictorSec: 0.001,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sampler.Timer()
		st.Start(PhaseDecide)
		st.Start(PhaseSliceEval)
		st.Next(PhasePredict)
		st.Next(PhaseSelect)
		st.End()
		st.End()
		e.Job = i
		e.Spans, e.SpanTotalSec = st.Finish()
		p := tr.Begin(e)
		p.End(0.021, false)
	}
}

// BenchmarkTracerEmitSpans measures full span capture on every event.
func BenchmarkTracerEmitSpans(b *testing.B) { benchSpans(b, 1) }

// BenchmarkTracerEmitSpansSampled measures the amortized cost at the
// 1-in-16 head-sampling rate an overhead-sensitive deployment would
// run (`dvfsd -span-every 16`).
func BenchmarkTracerEmitSpansSampled(b *testing.B) { benchSpans(b, 16) }
