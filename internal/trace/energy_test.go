package trace

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

func TestEnergyEstimator(t *testing.T) {
	est := EnergyEstimator()
	for _, name := range []string{"a7", "x86", "biglittle"} {
		p, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range p.Levels {
			e := &obs.DecisionEvent{Platform: name, Level: i, Done: true, ActualExecSec: 0.03}
			if got, want := est(e), p.ActivePower(l)*0.03; got != want {
				t.Errorf("%s level %d: %v J, want %v", name, i, got, want)
			}
		}
		// A level the platform does not have clamps to the top level.
		top := p.ActivePower(p.MaxLevel()) * 0.03
		for _, lv := range []int{-1, p.NumLevels(), 1000} {
			e := &obs.DecisionEvent{Platform: name, Level: lv, FreqKHz: 500000, Done: true, ActualExecSec: 0.03}
			if got := est(e); got != top {
				t.Errorf("%s level %d: %v J, want the top level's %v", name, lv, got, top)
			}
		}
	}

	// No resolvable platform: the tracker's frequency-squared proxy.
	for _, name := range []string{"", "nope"} {
		e := &obs.DecisionEvent{Platform: name, Level: 3, FreqKHz: 1500000, Done: true, ActualExecSec: 2}
		if got, want := est(e), 1.5*1.5*2.0; got != want {
			t.Errorf("platform %q: %v J, want the f² proxy %v", name, got, want)
		}
	}

	// A decision whose job has not run costs nothing yet.
	if got := est(&obs.DecisionEvent{Platform: "a7", Level: 3, PredictedExecSec: 1}); got != 0 {
		t.Errorf("not-done event priced at %v J", got)
	}
}

// TestEnergyEstimatorConcurrent: the fleet tracker's shards call one
// estimator from many goroutines; run it under -race.
func TestEnergyEstimatorConcurrent(t *testing.T) {
	est := EnergyEstimator()
	names := []string{"a7", "x86", "biglittle", "nope", ""}
	want := make([]float64, len(names))
	for i, name := range names {
		want[i] = est(&obs.DecisionEvent{Platform: name, Level: 2, FreqKHz: 900000, Done: true, ActualExecSec: 0.01})
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g + k) % len(names)
				e := &obs.DecisionEvent{Platform: names[i], Level: 2, FreqKHz: 900000, Done: true, ActualExecSec: 0.01}
				if got := est(e); got != want[i] {
					t.Errorf("goroutine %d: %q priced %v, want %v", g, names[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
