package obs

import (
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

const (
	// driftWindow is the number of recent residuals kept per workload.
	driftWindow = 256
	// driftMinSamples is how many residuals a workload's window must
	// hold before UnderRates reports it: fewer are too noisy to judge a
	// model by.
	driftMinSamples = 50
	// driftAlpha is the under-prediction penalty weight the models are
	// trained with (§3.3, core's default). Training with asymmetric
	// penalty α makes the fit approximately the α/(1+α)-quantile
	// regressor, so a healthy model under-predicts ≈ 1/(1+α) of jobs.
	driftAlpha = 100
	// DriftMaxUnderRate is three times that trained expectation: the
	// builtin model_stale alert rule fires while a workload's
	// under-prediction rate is above it and clears at half of it.
	DriftMaxUnderRate = 3.0 / (1 + driftAlpha)
)

// DriftConfig is accepted and ignored by NewDriftMonitor: the
// monitor's window and thresholds are constants.
type DriftConfig struct {
	// SLO is read by nothing; perfbench's serving tracer still sets it.
	SLO *SLOTracker
}

// DriftMonitor measures, per workload, the residuals of the last
// driftWindow completed predictions: their under-prediction rate and
// quantiles. It decides nothing; dvfsd exports the rate and its alert
// engine's model_stale rule judges staleness. Mantis-style prediction
// systems stay trustworthy only while the observed residual
// distribution still looks like the training distribution.
type DriftMonitor struct {
	mu  sync.Mutex
	per map[string]*driftState
}

type driftState struct {
	window [driftWindow]float64 // circular buffer of residuals
	next   int
	filled bool
	under  int // under-predictions currently in the window
}

// NewDriftMonitor returns an empty monitor.
func NewDriftMonitor(DriftConfig) *DriftMonitor {
	return &DriftMonitor{per: map[string]*driftState{}}
}

// Observe feeds one completed prediction's residual (actual −
// predicted, seconds) for a workload.
func (d *DriftMonitor) Observe(workload string, residualSec float64) {
	d.mu.Lock()
	st := d.per[workload]
	if st == nil {
		st = &driftState{}
		d.per[workload] = st
	}
	if st.filled && st.window[st.next] > 0 {
		st.under--
	}
	st.window[st.next] = residualSec
	if residualSec > 0 {
		st.under++
	}
	st.next++
	if st.next == driftWindow {
		st.next = 0
		st.filled = true
	}
	d.mu.Unlock()
}

func (st *driftState) size() int {
	if st.filled {
		return driftWindow
	}
	return st.next
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

// UnderRates returns the under-prediction rate of every workload whose
// window holds at least driftMinSamples residuals.
func (d *DriftMonitor) UnderRates() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]float64, len(d.per))
	for name, st := range d.per {
		if n := st.size(); n >= driftMinSamples {
			out[name] = float64(st.under) / float64(n)
		}
	}
	return out
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
