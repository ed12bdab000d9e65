package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/platform"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// trainedState renders what training decided for c, floats in their
// shortest exact form: the distribution format where it applies
// (SaveController refuses quadratic models), then what that format
// leaves out — the slice, its static bound, the selector, and the
// training data.
func trainedState(t *testing.T, c *Controller) string {
	t.Helper()
	var b bytes.Buffer
	if len(c.quadCols) == 0 {
		if err := SaveController(&b, c); err != nil {
			t.Fatal(err)
		}
	}
	slice, err := taskir.MarshalProgram(c.Slice.Prog)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(slice)
	fmt.Fprintf(&b, "\nmodels %v %v\nquad %v hints %d\n", *c.ModelMin, *c.ModelMax, c.quadCols, len(c.hints))
	fmt.Fprintf(&b, "slice %v %d/%d bound %v %v\n", sortedFIDs(c.Slice.NeededFIDs),
		c.Slice.SliceStmts, c.Slice.FullStmts, c.SliceBound, c.SliceBoundSec)
	fmt.Fprintf(&b, "selector %s %v %v %v\n", c.Selector.Plat.Name, c.Selector.Margin,
		c.Selector.EnergyAware, c.Selector.Switch.Seconds)
	fmt.Fprintf(&b, "profile %v\nmem %v\n", *c.Prof, c.MemFraction())
	return b.String()
}

// TestBuildEachMatchesBuild: a controller fitted from one shared
// profile is the controller Build trains on its own, bit for bit, for
// every workload on the a7, x86 and big.LITTLE models, with and without
// hints and the quadratic extension.
func TestBuildEachMatchesBuild(t *testing.T) {
	plats := []func() *platform.Platform{platform.ODROIDXU3A7, platform.IntelI7, platform.BigLITTLE}
	for _, w := range workload.All() {
		for _, hints := range []bool{false, true} {
			for _, quad := range []bool{false, true} {
				cfgs := make([]Config, len(plats))
				for i, mk := range plats {
					cfgs[i] = Config{Plat: mk(), ProfileSeed: 5, UseHints: hints, Quadratic: quad}
				}
				shared, err := BuildEach(w, cfgs)
				if err != nil {
					t.Fatalf("%s hints=%v quad=%v: %v", w.Name, hints, quad, err)
				}
				for i, cfg := range cfgs {
					alone, err := Build(w, cfg)
					if err != nil {
						t.Fatalf("%s hints=%v quad=%v: %v", w.Name, hints, quad, err)
					}
					if got, want := trainedState(t, shared[i]), trainedState(t, alone); got != want {
						t.Errorf("%s on %s hints=%v quad=%v: the shared-profile controller differs from Build's\n shared: %.300s\n  Build: %.300s",
							w.Name, cfg.Plat.Name, hints, quad, got, want)
					}
				}
			}
		}
	}
}

// TestBuildEachCapsAndSweeps: configurations that differ in more than
// the platform — α, margin, the two overhead caps — still train from
// one profile exactly as Build trains each alone.
func TestBuildEachCapsAndSweeps(t *testing.T) {
	w := workload.PocketSphinx()
	cfgs := []Config{
		{ProfileSeed: 42, ProfileJobs: 60},
		{ProfileSeed: 42, ProfileJobs: 60, Alpha: 10, Margin: 0.2},
		{ProfileSeed: 42, ProfileJobs: 60, MaxPredictorSec: 0.0005},
		{ProfileSeed: 42, ProfileJobs: 60, MaxSliceBudgetFrac: 0.0002, Plat: platform.IntelI7()},
		{ProfileSeed: 42, ProfileJobs: 60, KeepAllFeatures: true, NoiseSigma: -1},
	}
	shared, err := BuildEach(w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		alone, err := Build(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := trainedState(t, shared[i]), trainedState(t, alone); got != want {
			t.Errorf("config %d: the shared-profile controller differs from Build's", i)
		}
	}
	// Both caps must have trimmed features for the comparison to cover
	// retraining.
	for _, i := range []int{2, 3} {
		if shared[i].Slice.SliceStmts >= shared[0].Slice.SliceStmts {
			t.Errorf("config %d: capped slice %d stmts not below the uncapped %d", i,
				shared[i].Slice.SliceStmts, shared[0].Slice.SliceStmts)
		}
	}
}

// TestBuildEachNeedsOneProfile: configurations that would profile
// different jobs cannot share a profile.
func TestBuildEachNeedsOneProfile(t *testing.T) {
	w := workload.SHA()
	for _, cfgs := range [][]Config{
		{{ProfileSeed: 1, ProfileJobs: 20}, {ProfileSeed: 2, ProfileJobs: 20}},
		{{ProfileSeed: 1, ProfileJobs: 20}, {ProfileSeed: 1, ProfileJobs: 30}},
	} {
		if _, err := BuildEach(w, cfgs); err == nil {
			t.Errorf("BuildEach(%+v) succeeded, want an error", cfgs)
		}
	}
	if ctls, err := BuildEach(w, nil); err != nil || ctls != nil {
		t.Errorf("BuildEach with no configs = %v, %v; want nothing", ctls, err)
	}
}

// TestTrainDoesNotRetainProfile: trained controllers keep their own
// training data, never the shared profile, so its feature traces are
// garbage as soon as training returns however long the controllers
// live.
func TestTrainDoesNotRetainProfile(t *testing.T) {
	w := workload.SHA()
	cfgs := []Config{{ProfileSeed: 5}, {ProfileSeed: 5, Plat: platform.IntelI7()}}
	pr, err := profile(w, 5, 80)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan string, 2)
	runtime.SetFinalizer(pr, func(*profileRun) { freed <- "profile" })
	runtime.SetFinalizer(pr.traces[0], func(*features.Trace) { freed <- "trace" })
	ctls := make([]*Controller, len(cfgs))
	for i, cfg := range cfgs {
		if ctls[i], err = pr.train(w, cfg.withDefaults(w)); err != nil {
			t.Fatal(err)
		}
	}
	pr = nil
	deadline := time.After(10 * time.Second)
	for n := 0; n < 2; {
		runtime.GC()
		select {
		case <-freed:
			n++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("the profile is still reachable from %d trained controllers", len(ctls))
		}
	}
	runtime.KeepAlive(ctls)
}
