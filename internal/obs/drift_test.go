package obs

import (
	"math"
	"sync"
	"testing"
)

// The monitor decides nothing itself; this walks one workload's
// exported under-prediction rate across the limits the model_stale
// alert rule applies to it: above DriftMaxUnderRate when the model
// drifts, below half of it once it recovers.
func TestDriftMonitorFlipsAndRecovers(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{})

	// Too few residuals to judge: nothing is exported yet.
	for i := 0; i < driftMinSamples-1; i++ {
		d.Observe("ldecode", 0.002)
	}
	if r, ok := d.UnderRates()["ldecode"]; ok {
		t.Fatalf("rate %g exported from %d residuals", r, driftMinSamples-1)
	}

	// A healthy stream: 1% under-prediction, matching the trained
	// α-quantile for α=100.
	for i := 0; i < 2*driftWindow; i++ {
		res := -0.001
		if i%100 == 0 {
			res = 0.002
		}
		d.Observe("ldecode", res)
	}
	if r := d.UnderRates()["ldecode"]; r > DriftMaxUnderRate {
		t.Fatalf("healthy stream under rate %g above %g", r, DriftMaxUnderRate)
	}

	// Drift: 20% under-prediction — far beyond 3/(1+α) ≈ 3%.
	for i := 0; i < driftWindow; i++ {
		res := -0.001
		if i%5 == 0 {
			res = 0.002
		}
		d.Observe("ldecode", res)
	}
	if r := d.UnderRates()["ldecode"]; r <= DriftMaxUnderRate {
		t.Fatalf("drifted stream under rate %g not above %g", r, DriftMaxUnderRate)
	}

	// Recovery: over-predicting again brings the rate under half the
	// threshold, where the rule clears.
	for i := 0; i < driftWindow; i++ {
		d.Observe("ldecode", -0.001)
	}
	if r := d.UnderRates()["ldecode"]; r >= DriftMaxUnderRate/2 {
		t.Fatalf("recovered stream under rate %g not below %g", r, DriftMaxUnderRate/2)
	}

	if ws := d.Workloads(); len(ws) != 1 || ws[0] != "ldecode" {
		t.Errorf("workloads = %v", ws)
	}
}

func TestDriftMonitorQuantilesAndIsolation(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{})
	if !math.IsNaN(d.Quantile("none", 0.5)) || !math.IsNaN(d.UnderRate("none")) {
		t.Fatal("unknown workload should report NaN")
	}
	for i := 1; i <= 64; i++ {
		d.Observe("a", float64(i))
		d.Observe("b", -1)
	}
	if p := d.Quantile("a", 0.5); p < 30 || p > 35 {
		t.Errorf("p50(a) = %g, want ≈ 32.5", p)
	}
	if r := d.UnderRate("b"); r != 0 {
		t.Errorf("workload b leaked under-predictions: %g", r)
	}
	// Both windows hold driftMinSamples residuals, so both rates are
	// exported, each from its own workload's residuals.
	if rates := d.UnderRates(); len(rates) != 2 || rates["a"] != 1 || rates["b"] != 0 {
		t.Errorf("under rates = %v, want a:1 b:0", rates)
	}
}

// The monitor is shared between the ingest path (Observe) and the
// metrics/debug paths (UnderRates, UnderRate, Quantile, Workloads); all
// must be safe to call concurrently. Run under -race.
func TestDriftMonitorConcurrent(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{})
	workloads := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w := workloads[(g+i)%len(workloads)]
				d.Observe(w, float64(i%7)-3)
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w := workloads[(g+i)%len(workloads)]
				d.UnderRates()
				d.UnderRate(w)
				d.Quantile(w, 0.5)
				d.Workloads()
			}
		}(g)
	}
	wg.Wait()
	for _, w := range workloads {
		if n := d.Quantile(w, 0.5); math.IsNaN(n) {
			t.Errorf("workload %s unobserved after concurrent run", w)
		}
	}
}
