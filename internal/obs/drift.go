package obs

import (
	"log/slog"
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// DriftConfig parameterizes the drift monitor. Zero values select
// defaults matching the paper's training configuration.
type DriftConfig struct {
	// Window is the number of recent residuals kept per workload;
	// zero → 256.
	Window int
	// MinSamples is the minimum completed predictions before staleness
	// is evaluated; zero → 50.
	MinSamples int
	// Alpha is the under-prediction penalty weight the model was
	// trained with (§3.3); zero → 100. Training with asymmetric
	// penalty α makes the fit approximately the α/(1+α)-quantile
	// regressor, so a healthy model under-predicts ≈ 1/(1+α) of jobs.
	Alpha float64
	// MaxUnderRate is the sliding-window under-prediction rate above
	// which the model is declared stale; zero → 3/(1+Alpha) (three
	// times the trained expectation). The monitor clears staleness
	// with hysteresis at half this threshold.
	MaxUnderRate float64
	// Log receives staleness transitions; nil discards them.
	Log *slog.Logger
	// StaleGauge, when non-nil, is set to 1/0 per workload on
	// staleness transitions (the dvfsd `dvfsd_model_stale` gauge).
	StaleGauge *GaugeVec
	// SLO, when non-nil, lets staleness warnings report the workload's
	// current deadline-miss burn rates alongside the residual drift —
	// the operator's first question after "the model drifted" is
	// "is it costing us the SLO yet?".
	SLO *SLOTracker
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 50
	}
	if c.Alpha <= 0 {
		c.Alpha = 100
	}
	if c.MaxUnderRate <= 0 {
		c.MaxUnderRate = 3 / (1 + c.Alpha)
	}
	return c
}

// DriftMonitor maintains online residual statistics per workload and
// flags a model as stale when its under-prediction rate over a sliding
// window exceeds the trained α-quantile expectation. It is the hook a
// future auto-retrain loop plugs into: Mantis-style prediction systems
// stay trustworthy only while the observed residual distribution still
// looks like the training distribution.
type DriftMonitor struct {
	cfg DriftConfig

	mu  sync.Mutex
	per map[string]*driftState
}

type driftState struct {
	window []float64 // circular buffer of residuals
	next   int
	filled bool
	under  int // under-predictions currently in the window
	total  int64
	stale  bool
}

// NewDriftMonitor returns a monitor with the given configuration.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor {
	return &DriftMonitor{cfg: cfg.withDefaults(), per: map[string]*driftState{}}
}

// Observe feeds one completed prediction's residual (actual −
// predicted, seconds) for a workload and re-evaluates staleness.
func (d *DriftMonitor) Observe(workload string, residualSec float64) {
	d.mu.Lock()
	st := d.per[workload]
	if st == nil {
		st = &driftState{window: make([]float64, d.cfg.Window)}
		d.per[workload] = st
	}
	if st.filled {
		if st.window[st.next] > 0 {
			st.under--
		}
	}
	st.window[st.next] = residualSec
	if residualSec > 0 {
		st.under++
	}
	st.next++
	if st.next == len(st.window) {
		st.next = 0
		st.filled = true
	}
	st.total++

	n := st.size()
	rate := float64(st.under) / float64(n)
	var transition *bool
	switch {
	case int64(n) >= int64(d.cfg.MinSamples) && !st.stale && rate > d.cfg.MaxUnderRate:
		st.stale = true
		t := true
		transition = &t
	case st.stale && rate < d.cfg.MaxUnderRate/2:
		st.stale = false
		t := false
		transition = &t
	}
	d.mu.Unlock()

	if transition == nil {
		return
	}
	if d.cfg.StaleGauge != nil {
		v := 0.0
		if *transition {
			v = 1
		}
		d.cfg.StaleGauge.With(workload).Set(v)
	}
	if d.cfg.Log != nil {
		if *transition {
			args := []any{
				"workload", workload, "under_rate", rate,
				"max_under_rate", d.cfg.MaxUnderRate, "window", n,
			}
			if d.cfg.SLO != nil {
				fast, slow := d.cfg.SLO.BurnRates(workload)
				if !math.IsNaN(fast) {
					args = append(args, "slo_fast_burn", fast, "slo_slow_burn", slow)
				}
			}
			d.cfg.Log.Warn("prediction model stale: under-prediction rate exceeds trained α-quantile",
				args...)
		} else {
			d.cfg.Log.Info("prediction model recovered", "workload", workload, "under_rate", rate)
		}
	}
}

func (st *driftState) size() int {
	if st.filled {
		return len(st.window)
	}
	return st.next
}

// Stale reports whether the workload's model is currently flagged.
func (d *DriftMonitor) Stale(workload string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.per[workload]
	return st != nil && st.stale
}

// UnderRate returns the sliding-window under-prediction rate (NaN with
// no observations).
func (d *DriftMonitor) UnderRate(workload string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.per[workload]
	if st == nil || st.size() == 0 {
		return math.NaN()
	}
	return float64(st.under) / float64(st.size())
}

// Quantile returns the p-quantile of the residuals currently in the
// workload's window (NaN with no observations).
func (d *DriftMonitor) Quantile(workload string, p float64) float64 {
	d.mu.Lock()
	st := d.per[workload]
	var xs []float64
	if st != nil {
		xs = append(xs, st.window[:st.size()]...)
	}
	d.mu.Unlock()
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return stats.QuantileSorted(xs, p)
}

// Workloads lists the workloads observed so far, sorted.
func (d *DriftMonitor) Workloads() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.per))
	for name := range d.per {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
