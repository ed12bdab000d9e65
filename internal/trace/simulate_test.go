package trace_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/taskir"
	"repro/internal/trace"
	"repro/internal/workload"
)

func buildController(t *testing.T, name string) (*workload.Workload, *core.Controller) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.Build(w, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w, ctl
}

// checkOutcome demands that every event of a decision log is the one
// completed decision of the record at its index: job order, Seq
// 0…n−1, the record's measured outcome, and outcome spans equal to
// the measured switch and execution times. It also demands that the
// record adapter completes the same outcome fields.
func checkOutcome(t *testing.T, r *sim.Result, events []obs.DecisionEvent) {
	t.Helper()
	if len(events) != len(r.Records) {
		t.Fatalf("%d events for %d records", len(events), len(r.Records))
	}
	adapted := trace.DecisionEvents(r)
	misses := 0
	for i, e := range events {
		rec := r.Records[i]
		if e.Seq != uint64(i) || e.Job != rec.Index || e.Level != rec.LevelIdx || !e.Done {
			t.Fatalf("event %d: seq %d job %d level %d done %v, record job %d level %d",
				i, e.Seq, e.Job, e.Level, e.Done, rec.Index, rec.LevelIdx)
		}
		if e.TimeSec != rec.StartSec || e.FromLevel != rec.FromLevelIdx ||
			e.MeasSwitchSec != rec.SwitchSec || e.PredictorSec != rec.PredictorSec ||
			e.ActualExecSec != rec.ExecSec || e.Missed != rec.Missed {
			t.Fatalf("event %d outcome differs from its record:\nevent  %+v\nrecord %+v", i, e, rec)
		}
		if len(e.Spans) > 0 {
			if d := obs.SpanDur(e.Spans, obs.PhaseSwitch); d != rec.SwitchSec {
				t.Errorf("event %d: switch span %g, measured %g", i, d, rec.SwitchSec)
			}
			if d := obs.SpanDur(e.Spans, obs.PhaseExec); d != rec.ExecSec {
				t.Errorf("event %d: exec span %g, measured %g", i, d, rec.ExecSec)
			}
		}
		a := adapted[i]
		if a.TimeSec != e.TimeSec || a.FromLevel != e.FromLevel || a.PredictorSec != e.PredictorSec ||
			a.MeasSwitchSec != e.MeasSwitchSec || a.Done != e.Done || a.ActualExecSec != e.ActualExecSec ||
			a.Missed != e.Missed || a.Predicted != e.Predicted || a.ResidualSec != e.ResidualSec {
			t.Fatalf("event %d: record adapter and controller disagree:\nadapter    %+v\ncontroller %+v", i, a, e)
		}
		if e.Missed {
			misses++
		}
	}
	if misses != r.Misses {
		t.Errorf("events count %d misses, the run %d", misses, r.Misses)
	}
}

// TestSimulateCompletesControllerEvents: a traced prediction
// controller's events are completed once, from the simulator's
// measured outcome, under every predictor placement. In the parallel,
// pipelined and no-predictor-cost runs the controller's own ledger
// charges a predictor estimate the timeline does not, so an event that
// kept the controller's view would fail the comparison.
func TestSimulateCompletesControllerEvents(t *testing.T) {
	w, ctl := buildController(t, "ldecode")
	for _, c := range []struct {
		name string
		cfg  sim.Config
		free bool // the timeline charges no predictor time after job 0
	}{
		{"sequential", sim.Config{Placement: sim.Sequential}, false},
		{"parallel", sim.Config{Placement: sim.Parallel}, true},
		{"pipelined", sim.Config{Placement: sim.Pipelined}, true},
		{"no-predictor-cost", sim.Config{DisablePredictorCost: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Jobs, cfg.Seed, cfg.BudgetSec = 80, 3, 0.03
			r, events, err := trace.Simulate(w, ctl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Misses == 0 {
				t.Fatal("no deadline misses: the miss comparison would be vacuous")
			}
			checkOutcome(t, r, events)
			charged := 0
			for i, e := range events {
				// The decision fields only the controller sees.
				want := ctl.Selector.Switch.Lookup(e.FromLevel, e.Level)
				if !e.Predicted || e.FeatHash == 0 || e.TFmaxSec <= 0 || e.TFminSec < e.TFmaxSec ||
					e.EffBudgetSec <= 0 || e.EffBudgetSec >= e.BudgetSec || e.SwitchSec != want {
					t.Fatalf("event %d decision fields: %+v (switch estimate want %g)", i, e, want)
				}
				if e.PredictorSec > 0 {
					charged++
				}
			}
			if c.free && charged > 1 {
				t.Errorf("%d jobs charged predictor time, want at most job 0", charged)
			}
			if !c.free && charged != len(events) {
				t.Errorf("%d of %d jobs charged predictor time", charged, len(events))
			}
		})
	}
}

// TestSimulateTracesSliceFallback: a job whose prediction slice fails
// runs at maximum frequency and is still traced, once, as an
// unpredicted decision.
func TestSimulateTracesSliceFallback(t *testing.T) {
	w, ctl := buildController(t, "sha")
	// A while loop that never ends trips its iteration guard, so every
	// slice run fails.
	body := ctl.Slice.Prog.Body
	ctl.Slice.Prog.Body = append(body[:len(body):len(body)], &taskir.While{Cond: taskir.Const(1), MaxIter: 1})
	r, events, err := trace.Simulate(w, ctl, sim.Config{Jobs: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, r, events)
	top := platform.ODROIDXU3A7().MaxLevel()
	for i, e := range events {
		if e.Predicted || e.Level != top.Index || e.FreqKHz != int64(top.FreqHz/1e3) ||
			e.Governor != "prediction" || e.PredictorSec != 0 || !math.IsNaN(r.Records[i].PredictedExecSec) {
			t.Fatalf("event %d is not an unpredicted decision at fmax: %+v", i, e)
		}
	}
}

// TestChromeBarsMatchSimulatedJobs: in the Chrome trace of a traced
// prediction run, under every predictor placement, each job's bar
// lasts its simulated wall time (EndSec − StartSec) and each
// deadline-miss marker sits where the job ended, to the trace's
// nanosecond resolution.
func TestChromeBarsMatchSimulatedJobs(t *testing.T) {
	w, ctl := buildController(t, "ldecode")
	for _, pl := range []struct {
		name string
		p    sim.Placement
	}{{"sequential", sim.Sequential}, {"pipelined", sim.Pipelined}, {"parallel", sim.Parallel}} {
		t.Run(pl.name, func(t *testing.T) {
			checkChromeBars(t, w, ctl, sim.Config{Jobs: 60, Seed: 3, BudgetSec: 0.03, Placement: pl.p})
		})
	}
}

func checkChromeBars(t *testing.T, w *workload.Workload, ctl *core.Controller, cfg sim.Config) {
	r, events, err := trace.Simulate(w, ctl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink := obs.NewChromeTraceSink(&b)
	for i := range events {
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var bars, marks []float64 // µs: bar durations, miss-marker times
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			bars = append(bars, e.Dur)
		case "i":
			marks = append(marks, e.Ts)
		}
	}
	if len(bars) != len(r.Records) || len(marks) != r.Misses || r.Misses == 0 {
		t.Fatalf("%d bars and %d miss markers for %d jobs and %d misses", len(bars), len(marks), len(r.Records), r.Misses)
	}
	const tol = 5e-10 // half the trace's 1 ns resolution
	m := 0
	for i, rec := range r.Records {
		if d := bars[i]*1e-6 - (rec.EndSec - rec.StartSec); math.Abs(d) > tol {
			t.Errorf("job %d: bar is %.3g s longer than the simulated job", i, d)
		}
		if rec.Missed {
			if d := marks[m]*1e-6 - rec.EndSec; math.Abs(d) > tol {
				t.Errorf("job %d: miss marker %.3g s after the job ended", i, d)
			}
			m++
		}
	}
}
