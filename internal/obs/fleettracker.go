package obs

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// FleetConfig parameterizes a FleetTracker. The zero value selects
// defaults suitable for dashboards: top-10 worst devices and the
// frequency-squared energy proxy.
type FleetConfig struct {
	// TopK is how many worst devices Snapshot surfaces; zero → 10.
	TopK int
	// EnergyPerJob estimates one completed event's energy in joules.
	// nil selects a frequency-squared proxy (freq²·exec, normalized to
	// GHz² so magnitudes stay readable): relative comparisons between
	// devices — all the health score needs — survive the missing
	// voltage constants.
	EnergyPerJob func(e *DecisionEvent) float64
}

// Fixed fleet-tracker parameters.
const (
	// fleetShards is the number of lock shards device state is spread
	// over. More shards means less contention under concurrent ingest;
	// determinism of snapshots is unaffected because shard sketches
	// merge in fixed shard order.
	fleetShards = 32
	// fleetMissTarget is the per-device deadline-miss budget the health
	// score normalizes against; fleetDriftBudget is the
	// |residual|/predicted fraction treated as a full drift signal.
	fleetMissTarget  = 0.01
	fleetDriftBudget = 0.25
	// fleetAlpha is the EWMA step for the per-device miss and drift
	// estimators (≈20-job memory).
	fleetAlpha = 0.05
	// fleetMinJobs is how many completed jobs a device needs before it
	// is classified; younger devices report ClassFresh.
	fleetMinJobs = 8
	// fleetDegradedScore and fleetOutlierScore are the health-score
	// thresholds for the degraded and outlier classes.
	fleetDegradedScore = 0.25
	fleetOutlierScore  = 0.5
	// fleetHistoryEvery appends one fleet history point (for dashboard
	// quantile bands) every N completed jobs; fleetHistoryCap bounds
	// the history ring.
	fleetHistoryEvery = 512
	fleetHistoryCap   = 256
)

// Device health classes.
const (
	ClassFresh    = "fresh"    // under fleetMinJobs — not yet classified
	ClassHealthy  = "healthy"  // score < fleetDegradedScore
	ClassDegraded = "degraded" // fleetDegradedScore ≤ score < fleetOutlierScore
	ClassOutlier  = "outlier"  // score ≥ fleetOutlierScore
)

// DeviceHealth is one device's scored state at snapshot time.
type DeviceHealth struct {
	Device   string `json:"device"`
	Platform string `json:"platform,omitempty"`
	Workload string `json:"workload,omitempty"`
	Events   int64  `json:"events"`
	Jobs     int64  `json:"jobs"`
	Misses   int64  `json:"misses"`
	// MissRate is lifetime misses/jobs; MissEWMA the recent estimate
	// the score uses.
	MissRate float64 `json:"miss_rate"`
	MissEWMA float64 `json:"miss_ewma"`
	// ResidEWMA tracks the signed residual fraction (positive =
	// under-prediction); DriftEWMA its magnitude.
	ResidEWMA float64 `json:"resid_ewma"`
	DriftEWMA float64 `json:"drift_ewma"`
	// EnergyPerJob is total estimated energy over completed jobs.
	EnergyPerJob float64 `json:"energy_per_job"`
	// Score ∈ [0,1): weighted saturating blend of miss, drift, and
	// energy excess (see DESIGN.md §5j). Attribution names the
	// dominant component: "miss", "drift", or "energy".
	Score       float64 `json:"score"`
	Class       string  `json:"class"`
	Attribution string  `json:"attribution"`
}

// FleetPoint is one history sample backing the dashboard's
// quantile-band sparklines.
type FleetPoint struct {
	Completed uint64  `json:"completed"`
	MissRate  float64 `json:"miss_rate"`
	ResidP50  float64 `json:"resid_p50"`
	ResidP95  float64 `json:"resid_p95"`
	ResidP99  float64 `json:"resid_p99"`
}

// SketchQuantiles is the standard dashboard quantile set read off a
// merged sketch.
type SketchQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// sketchQuantiles reads the standard set; empty sketches read as zero
// (NaN would poison JSON encoding downstream).
func sketchQuantiles(s *QuantileSketch) SketchQuantiles {
	return SketchQuantiles{
		P50: nanToZero(s.Quantile(0.50)),
		P90: nanToZero(s.Quantile(0.90)),
		P95: nanToZero(s.Quantile(0.95)),
		P99: nanToZero(s.Quantile(0.99)),
	}
}

// FleetStatus is a point-in-time fleet summary, as served by dvfsd's
// GET /debug/fleet and printed by dvfstrace -by-device.
type FleetStatus struct {
	Devices   int    `json:"devices"`
	Events    uint64 `json:"events"`
	Completed uint64 `json:"completed"`
	Misses    uint64 `json:"misses"`
	// MissRate is the fleet-wide misses/completed.
	MissRate float64 `json:"miss_rate"`
	// Healthy/Degraded/Outliers/Fresh count devices per class.
	Healthy  int `json:"healthy"`
	Degraded int `json:"degraded"`
	Outliers int `json:"outliers"`
	Fresh    int `json:"fresh"`
	// ResidualFrac is the distribution of |residual|/predicted across
	// completed predicted jobs (stream-level, sketch-backed).
	ResidualFrac SketchQuantiles `json:"residual_frac"`
	// DeviceMissEWMA and DeviceEnergyPerJob are distributions *across
	// devices* at snapshot time.
	DeviceMissEWMA     SketchQuantiles `json:"device_miss_ewma"`
	DeviceEnergyPerJob SketchQuantiles `json:"device_energy_per_job"`
	// Worst is the top-K devices by health score with attribution.
	Worst []DeviceHealth `json:"worst,omitempty"`
	// TopMiss is the heavy-hitter view of miss counts by device.
	TopMiss []HeavyHit `json:"top_miss,omitempty"`
	// History backs the dashboard sparklines and quantile bands.
	History []FleetPoint `json:"history,omitempty"`
}

type deviceState struct {
	device    string
	platform  string
	workload  string
	events    int64
	jobs      int64
	misses    int64
	missEWMA  float64
	residEWMA float64
	driftEWMA float64
	energyJ   float64
}

type fleetShard struct {
	mu     sync.Mutex
	dev    map[string]*deviceState
	resid  *QuantileSketch
	missHH *HeavyHitters
}

// FleetTracker is a sink that consumes device-labeled DecisionEvents
// and maintains per-device health: miss-rate and residual-drift EWMAs,
// an energy/job estimate, and stream-level sketches. State is sharded
// by device hash so 32 concurrent writers (the fleet worker pool, or
// parallel ingest requests) contend only per shard; Snapshot merges
// shard sketches in fixed shard order, so a deterministic feed yields
// deterministic snapshots.
type FleetTracker struct {
	cfg    FleetConfig
	shards []*fleetShard

	devices   atomic.Int64 // bumped by Emit when it first sees a device
	events    atomic.Uint64
	completed atomic.Uint64
	misses    atomic.Uint64

	histMu   sync.Mutex
	history  []FleetPoint
	histNext uint64 // completed-count threshold for the next point
}

// NewFleetTracker returns a tracker with the given configuration.
func NewFleetTracker(cfg FleetConfig) *FleetTracker {
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	t := &FleetTracker{
		cfg:      cfg,
		shards:   make([]*fleetShard, fleetShards),
		histNext: fleetHistoryEvery,
	}
	for i := range t.shards {
		t.shards[i] = &fleetShard{
			dev:    map[string]*deviceState{},
			resid:  NewQuantileSketch(defaultCompression),
			missHH: NewHeavyHitters(defaultHHCapacity),
		}
	}
	return t
}

// deviceKey labels events with no Device field so single-device traces
// still aggregate somewhere visible.
const deviceKey = "-"

// Emit consumes one decision event. Safe for concurrent use.
func (t *FleetTracker) Emit(e *DecisionEvent) {
	dev := e.Device
	if dev == "" {
		dev = deviceKey
	}
	t.events.Add(1)
	sh := t.shards[strHash(dev)%uint64(len(t.shards))]

	sh.mu.Lock()
	st := sh.dev[dev]
	if st == nil {
		st = &deviceState{device: dev}
		sh.dev[dev] = st
		t.devices.Add(1)
	}
	if st.platform == "" {
		st.platform = e.Platform
	}
	if st.workload == "" {
		st.workload = e.Workload
	}
	st.events++
	if e.Done {
		st.jobs++
		miss := 0.0
		if e.Missed {
			miss = 1
			st.misses++
			sh.missHH.Add(dev, 1)
		}
		st.missEWMA += fleetAlpha * (miss - st.missEWMA)
		if e.Predicted && e.PredictedExecSec > 0 {
			rf := e.ResidualSec / e.PredictedExecSec
			sh.resid.Add(math.Abs(rf))
			st.residEWMA += fleetAlpha * (rf - st.residEWMA)
			st.driftEWMA += fleetAlpha * (math.Abs(rf) - st.driftEWMA)
		}
		st.energyJ += t.energy(e)
	}
	sh.mu.Unlock()

	if !e.Done {
		return
	}
	if e.Missed {
		t.misses.Add(1)
	}
	t.maybeHistory(t.completed.Add(1))
}

func (t *FleetTracker) energy(e *DecisionEvent) float64 {
	if t.cfg.EnergyPerJob != nil {
		return t.cfg.EnergyPerJob(e)
	}
	// freq²·time proxy in GHz²·s: dynamic power scales ≈ f·V² with
	// V roughly ∝ f over a DVFS range, so f² preserves the ordering
	// the health score cares about even without platform power tables.
	ghz := float64(e.FreqKHz) / 1e6
	return ghz * ghz * e.ActualExecSec
}

// maybeHistory appends a fleet history point when the completed count
// crosses the next threshold. The point snapshots the merged residual
// sketch, so it takes every shard lock briefly; fleetHistoryEvery spaces
// that cost out.
func (t *FleetTracker) maybeHistory(done uint64) {
	t.histMu.Lock()
	if done < t.histNext {
		t.histMu.Unlock()
		return
	}
	t.histNext = done + fleetHistoryEvery
	resid := t.mergedResiduals()
	pt := FleetPoint{
		Completed: done,
		ResidP50:  nanToZero(resid.Quantile(0.50)),
		ResidP95:  nanToZero(resid.Quantile(0.95)),
		ResidP99:  nanToZero(resid.Quantile(0.99)),
	}
	if c := t.completed.Load(); c > 0 {
		pt.MissRate = float64(t.misses.Load()) / float64(c)
	}
	if len(t.history) == fleetHistoryCap {
		copy(t.history, t.history[1:])
		t.history[len(t.history)-1] = pt
	} else {
		t.history = append(t.history, pt)
	}
	t.histMu.Unlock()
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// mergedResiduals merges every shard's residual sketch in shard order
// into a fresh sketch.
func (t *FleetTracker) mergedResiduals() *QuantileSketch {
	out := NewQuantileSketch(defaultCompression)
	for _, sh := range t.shards {
		sh.mu.Lock()
		out.Merge(sh.resid)
		sh.mu.Unlock()
	}
	return out
}

// Counts returns how many devices the tracker holds and how many
// completed jobs it has seen: the Snapshot fields Devices and
// Completed, read from running counters without scoring the fleet.
func (t *FleetTracker) Counts() (devices int, completed uint64) {
	return int(t.devices.Load()), t.completed.Load()
}

// DeviceHealths returns every tracked device's scored state, sorted by
// device ID. The energy component normalizes against the fleet median
// energy/job, so it is only computable fleet-wide at read time.
func (t *FleetTracker) DeviceHealths() []DeviceHealth {
	return t.scoredDevices()
}

func (t *FleetTracker) scoredDevices() []DeviceHealth {
	all := make([]DeviceHealth, 0, t.devices.Load())
	for _, sh := range t.shards {
		sh.mu.Lock()
		for _, st := range sh.dev {
			d := DeviceHealth{
				Device:    st.device,
				Platform:  st.platform,
				Workload:  st.workload,
				Events:    st.events,
				Jobs:      st.jobs,
				Misses:    st.misses,
				MissEWMA:  st.missEWMA,
				ResidEWMA: st.residEWMA,
				DriftEWMA: st.driftEWMA,
			}
			if st.jobs > 0 {
				d.MissRate = float64(st.misses) / float64(st.jobs)
				d.EnergyPerJob = st.energyJ / float64(st.jobs)
			}
			all = append(all, d)
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(all, func(a, b DeviceHealth) int { return strings.Compare(a.Device, b.Device) })

	// Fleet median energy/job over classified devices anchors the
	// energy-excess component.
	var epj []float64
	for _, d := range all {
		if d.Jobs >= fleetMinJobs {
			epj = append(epj, d.EnergyPerJob)
		}
	}
	medEPJ := 0.0
	if len(epj) > 0 {
		sortFloats(epj)
		medEPJ = epj[len(epj)/2]
	}
	for i := range all {
		t.score(&all[i], medEPJ)
	}
	return all
}

// sat maps [0,∞) onto [0,1): x/(1+x). A component at exactly its
// budget contributes 0.5 of its weight.
func sat(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x / (1 + x)
}

// score fills Score/Class/Attribution: 0.5·sat(miss/budget) +
// 0.3·sat(drift/budget) + 0.2·sat(energy excess vs fleet median).
func (t *FleetTracker) score(d *DeviceHealth, medEPJ float64) {
	missC := sat(d.MissEWMA / fleetMissTarget)
	driftC := sat(d.DriftEWMA / fleetDriftBudget)
	energyC := 0.0
	if medEPJ > 0 && d.EnergyPerJob > medEPJ {
		energyC = sat(d.EnergyPerJob/medEPJ - 1)
	}
	wMiss, wDrift, wEnergy := 0.5*missC, 0.3*driftC, 0.2*energyC
	d.Score = wMiss + wDrift + wEnergy
	switch {
	case wMiss >= wDrift && wMiss >= wEnergy:
		d.Attribution = "miss"
	case wDrift >= wEnergy:
		d.Attribution = "drift"
	default:
		d.Attribution = "energy"
	}
	switch {
	case d.Jobs < fleetMinJobs:
		d.Class = ClassFresh
	case d.Score >= fleetOutlierScore:
		d.Class = ClassOutlier
	case d.Score >= fleetDegradedScore:
		d.Class = ClassDegraded
	default:
		d.Class = ClassHealthy
	}
}

// Snapshot computes the fleet summary: per-class counts, merged
// sketch quantiles, the top-K worst devices (score descending, device
// ascending — deterministic), heavy-hitter miss counts, and the
// history ring.
func (t *FleetTracker) Snapshot() FleetStatus {
	s := FleetStatus{
		Events:    t.events.Load(),
		Completed: t.completed.Load(),
		Misses:    t.misses.Load(),
	}
	if s.Completed > 0 {
		s.MissRate = float64(s.Misses) / float64(s.Completed)
	}

	all := t.scoredDevices()
	s.Devices = len(all)
	missSk := NewQuantileSketch(defaultCompression)
	epjSk := NewQuantileSketch(defaultCompression)
	for _, d := range all {
		switch d.Class {
		case ClassFresh:
			s.Fresh++
		case ClassHealthy:
			s.Healthy++
		case ClassDegraded:
			s.Degraded++
		case ClassOutlier:
			s.Outliers++
		}
		if d.Jobs >= fleetMinJobs {
			missSk.Add(d.MissEWMA)
			epjSk.Add(d.EnergyPerJob)
		}
	}
	s.DeviceMissEWMA = sketchQuantiles(missSk)
	s.DeviceEnergyPerJob = sketchQuantiles(epjSk)
	s.ResidualFrac = sketchQuantiles(t.mergedResiduals())

	s.Worst = worstDevices(all, t.cfg.TopK)

	hh := NewHeavyHitters(defaultHHCapacity)
	for _, sh := range t.shards {
		sh.mu.Lock()
		hh.Merge(sh.missHH)
		sh.mu.Unlock()
	}
	s.TopMiss = hh.Top(t.cfg.TopK)

	t.histMu.Lock()
	s.History = append([]FleetPoint(nil), t.history...)
	t.histMu.Unlock()
	return s
}

// worstFirst orders the worst-devices ranking: score descending, then
// device ID ascending. IDs are unique, so the order is total and the
// top k under it are the first k of a full sort.
func worstFirst(a, b *DeviceHealth) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return strings.Compare(a.Device, b.Device)
}

// worstDevices returns the k classified (non-fresh) devices of all
// that rank first under worstFirst, in that order. It keeps the k that
// rank first among those seen so far in a bounded heap of indices, so
// it moves ints instead of sorting every ~150-byte record: O(n log k).
func worstDevices(all []DeviceHealth, k int) []DeviceHealth {
	h := make([]int, 0, min(k, len(all)))
	// down restores the heap order below slot p: each slot ranks after
	// its children, so h[0] is the kept device that ranks last.
	down := func(p int) {
		for {
			c := 2*p + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && worstFirst(&all[h[c+1]], &all[h[c]]) > 0 {
				c++
			}
			if worstFirst(&all[h[c]], &all[h[p]]) < 0 {
				return
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	for i := range all {
		switch {
		case all[i].Class == ClassFresh:
		case len(h) < k:
			h = append(h, i)
			if len(h) == k {
				for p := k/2 - 1; p >= 0; p-- {
					down(p)
				}
			}
		case worstFirst(&all[i], &all[h[0]]) < 0:
			h[0] = i
			down(0)
		}
	}
	slices.SortFunc(h, func(i, j int) int { return worstFirst(&all[i], &all[j]) })
	out := make([]DeviceHealth, len(h))
	for i, d := range h {
		out[i] = all[d]
	}
	return out
}
