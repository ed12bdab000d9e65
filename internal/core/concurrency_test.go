package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The serving daemon (internal/serve) shares one Controller across all
// request goroutines, and fleet simulation across its workers, so the
// decision path must be race-clean: Decide may only read shared state
// (the frozen slice environment copies global writes into per-call
// locals, the trace and span ledger are per-call, and PredictTrace
// touches nothing mutable). This test hammers one controller from 32
// goroutines under -race, half of them filling in decision events, and
// checks every goroutine reaches identical decisions for identical
// jobs.
func TestControllerConcurrentJobStart(t *testing.T) {
	w := workload.SHA()
	c, err := Build(w, Config{ProfileJobs: 60, ProfileSeed: 7})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const jobs = 40
	gen := w.NewGen(99)
	globals := w.FreshGlobals()
	params := make([]map[string]int64, jobs)
	for i := range params {
		params[i] = gen.Next(i)
	}

	// Reference decisions, computed single-threaded.
	ref := make([]governor.Decision, jobs)
	for i := range params {
		job := &governor.Job{Params: params[i], Globals: globals, RemainingBudgetSec: w.DefaultBudgetSec}
		ref[i] = c.JobStart(job, c.Plat.MaxLevel())
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				job := &governor.Job{Params: params[i], Globals: globals, RemainingBudgetSec: w.DefaultBudgetSec}
				var e *obs.DecisionEvent
				if g%2 == 1 {
					e = &obs.DecisionEvent{}
				}
				d := c.Decide(job, c.Plat.MaxLevel(), e)
				if !reflect.DeepEqual(d, ref[i]) {
					select {
					case errs <- "concurrent decision differs from single-threaded reference":
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// PredictTrace and JobStart must agree: JobStart is defined as "record
// the trace by running the slice, then PredictTrace". The serving path
// relies on this equivalence (the daemon receives the trace over the
// wire and calls PredictTrace).
func TestPredictTraceMatchesJobStart(t *testing.T) {
	w := workload.SHA()
	c, err := Build(w, Config{ProfileJobs: 60, ProfileSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen := w.NewGen(3)
	globals := w.FreshGlobals()
	for i := 0; i < 25; i++ {
		params := gen.Next(i)
		job := &governor.Job{Params: params, Globals: globals, RemainingBudgetSec: w.DefaultBudgetSec}
		d := c.JobStart(job, c.Plat.MaxLevel())

		tr := features.NewTrace()
		sw, err := c.Slice.Run(globals, params, tr)
		if err != nil {
			t.Fatal(err)
		}
		predictorSec := c.Plat.JobTimeAt(sw.CPU, sw.MemSec, c.Plat.MaxLevel())
		p := c.PredictTrace(tr, params, w.DefaultBudgetSec, predictorSec, c.Plat.MaxLevel())
		if p.Target != d.Target || p.PredictorSec != d.PredictorSec || p.PredictedExecSec != d.PredictedExecSec {
			t.Fatalf("job %d: PredictTrace %+v != JobStart %+v", i, p, d)
		}
	}
}
