package alert

import (
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
)

// The online energy meter is the live counterpart of dvfsreplay's
// offline reconstruction (internal/replay.reconstruct): both price each
// decision event through the same platform.Timeline — the idle gap
// before the job at IdlePower(from), the predictor slice at
// ActivePower(from), the DVFS transition at SwitchPower(from, to), and
// the execution at ActivePower(level) — here keyed by (workload,
// device). The one segment it cannot charge is the replay's final
// drain to the horizon (the trace has not ended yet), so on an
// identical trace the two agree exactly up to that drain.
//
// It runs as a tracer sink on the decision path, so Emit is
// //dvfs:hotpath: pure float arithmetic over read-only power tables
// under one short mutex, with allocations confined to the first event
// of a new stream.

// EnergyConfig wires an EnergyMeter.
type EnergyConfig struct {
	// Platform prices events that do not carry a platform name (the
	// common case: this daemon's own serving). Required for those
	// events to be metered; events naming an unknown platform are
	// counted in Skipped rather than guessed at.
	Platform *platform.Platform
	// BudgetW is the average power budget per stream in watts; > 0
	// enables the fast/slow burn-rate windows exported as
	// dvfsd_energy_budget_burn.
	BudgetW float64
}

// Fixed meter parameters: the fast and slow burn windows in decisions,
// the decisions a window needs before it reports a burn, and the bound
// on tracked (workload, device) streams.
const (
	energyFastWindow = 128
	energySlowWindow = 2048
	energyMinSamples = 16
	energyMaxKeys    = 64
)

// EnergyOverflowKey is the stream that absorbs decisions beyond the
// energyMaxKeys bound, so totals stay accurate while memory stays bounded.
// Each event folded into it is still priced on its own platform.
const EnergyOverflowKey = "_overflow"

// streamKey identifies one metered stream. A struct key keeps the hot
// path's map lookup allocation-free.
type streamKey struct {
	workload, device string
}

// energyStream is one (workload, device) accumulator.
type energyStream struct {
	tl platform.Timeline // segment totals; tl.Now is the stream's clock

	jobs     int64 // events that contributed an execution segment
	oneShots int64 // of those, priced from the prediction (Done=false)

	totalJ     float64
	predBasisJ float64 // exec energy priced from predictions

	fast, slow *burnWin
}

// burnWin is a fixed-size ring of (joules, seconds) pairs with running
// sums — the energy twin of obs.SLOTracker's miss window.
type burnWin struct {
	j, sec       []float64
	idx, n       int
	sumJ, sumSec float64
}

func newBurnWin(size int) *burnWin {
	return &burnWin{j: make([]float64, size), sec: make([]float64, size)}
}

func (w *burnWin) push(j, sec float64) {
	w.sumJ += j - w.j[w.idx]
	w.sumSec += sec - w.sec[w.idx]
	w.j[w.idx] = j
	w.sec[w.idx] = sec
	w.idx++
	if w.idx == len(w.j) {
		w.idx = 0
	}
	if w.n < len(w.j) {
		w.n++
	}
}

// watts is the window's average power draw.
func (w *burnWin) watts() float64 {
	if w.sumSec <= 0 {
		return 0
	}
	return w.sumJ / w.sumSec
}

// EnergyMeter accumulates per-decision energy live, keyed by
// (workload, device). It implements obs.Sink so dvfsd attaches it to
// the tracer; fleet ingest feeds it the same way.
type EnergyMeter struct {
	mu      sync.Mutex
	cfg     EnergyConfig
	own     *platform.PowerTable // cfg.Platform's table; nil without one
	streams map[streamKey]*energyStream
	skipped uint64
}

// NewEnergyMeter builds a meter.
func NewEnergyMeter(cfg EnergyConfig) *EnergyMeter {
	m := &EnergyMeter{cfg: cfg, streams: map[streamKey]*energyStream{}}
	if cfg.Platform != nil {
		m.own = platform.NewPowerTable(cfg.Platform)
	}
	return m
}

// table resolves the power table an event is priced on: the configured
// platform for events that name none (or name it), otherwise the
// named ByName platform; nil when neither applies.
func (m *EnergyMeter) table(name string) *platform.PowerTable {
	if name == "" || (m.cfg.Platform != nil && name == m.cfg.Platform.Name) {
		return m.own
	}
	pt, _ := platform.PowerTableByName(name)
	return pt
}

// Emit implements obs.Sink: price one decision event on its own
// platform's table. The fast path — known stream — is allocation-free;
// a new stream allocates once on first sight.
//
//dvfs:hotpath
func (m *EnergyMeter) Emit(e *obs.DecisionEvent) {
	pt := m.table(e.Platform)
	m.mu.Lock()
	if pt == nil {
		// Unknown platform: counting beats guessing at a power curve.
		m.skipped++
		m.mu.Unlock()
		return
	}
	st := m.streams[streamKey{e.Workload, e.Device}]
	if st == nil {
		//dvfs:allow-alloc first event of a stream: builds the accumulator
		st = m.newStream(e.Workload, e.Device)
	}
	t0 := st.tl.Now
	idle := st.tl.IdleUntil(pt, e.TimeSec, e.FromLevel)
	swSec := e.MeasSwitchSec
	if swSec == 0 && e.Level != e.FromLevel {
		// The table estimate beats pricing the transition at zero —
		// the same fallback the offline reconstruction uses.
		swSec = e.SwitchSec
	}
	var execSec float64
	switch {
	case e.Done && e.ActualExecSec > 0:
		execSec = e.ActualExecSec
	case !e.Done && e.PredictedExecSec > 0:
		// One-shot serve decision: the job runs client-side, so price
		// the prediction — flagged separately in predBasisJ.
		execSec = e.PredictedExecSec
	}
	c := st.tl.Job(pt, e.FromLevel, e.Level, e.PredictorSec, swSec, execSec)
	if execSec > 0 {
		st.jobs++
		if !e.Done {
			st.oneShots++
			st.predBasisJ += c.ExecJ
		}
	}
	j := idle + c.PredictorJ + c.SwitchJ + c.ExecJ
	st.totalJ += j
	if st.fast != nil {
		if dt := st.tl.Now - t0; dt > 0 {
			st.fast.push(j, dt)
			st.slow.push(j, dt)
		}
	}
	m.mu.Unlock()
}

// newStream registers a stream, folding into the overflow stream past
// energyMaxKeys. Caller holds m.mu.
func (m *EnergyMeter) newStream(workload, device string) *energyStream {
	key := streamKey{workload, device}
	if len(m.streams) >= energyMaxKeys {
		key = streamKey{EnergyOverflowKey, EnergyOverflowKey}
		if st := m.streams[key]; st != nil {
			return st
		}
	}
	st := &energyStream{}
	if m.cfg.BudgetW > 0 {
		st.fast = newBurnWin(energyFastWindow)
		st.slow = newBurnWin(energySlowWindow)
	}
	m.streams[key] = st
	return st
}

// Close implements obs.Sink.
func (m *EnergyMeter) Close() error { return nil }

// EnergyStreamStats is one stream's totals for export.
type EnergyStreamStats struct {
	Workload, Device string
	Jobs, OneShots   int64

	TotalJ, IdleJ, ExecJ, PredictorJ, SwitchJ float64
	PredictedBasisJ                           float64

	PerJobJ        float64 // TotalJ / Jobs
	PredictorShare float64 // PredictorJ / TotalJ

	// FastBurn and SlowBurn are windowed watts divided by BudgetW;
	// zero until energyMinSamples decisions have landed or when no budget is
	// configured.
	FastBurn, SlowBurn float64
	DurationSec        float64
}

// Snapshot returns every stream's stats, sorted by workload then
// device.
func (m *EnergyMeter) Snapshot() []EnergyStreamStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EnergyStreamStats, 0, len(m.streams))
	for key, st := range m.streams {
		s := EnergyStreamStats{
			Workload: key.workload, Device: key.device,
			Jobs: st.jobs, OneShots: st.oneShots,
			TotalJ: st.totalJ, IdleJ: st.tl.IdleJ, ExecJ: st.tl.ExecJ,
			PredictorJ: st.tl.PredictorJ, SwitchJ: st.tl.SwitchJ,
			PredictedBasisJ: st.predBasisJ,
			DurationSec:     st.tl.Now,
		}
		if st.jobs > 0 {
			s.PerJobJ = st.totalJ / float64(st.jobs)
		}
		if st.totalJ > 0 {
			s.PredictorShare = st.tl.PredictorJ / st.totalJ
		}
		if m.cfg.BudgetW > 0 && st.fast != nil {
			if st.fast.n >= energyMinSamples {
				s.FastBurn = st.fast.watts() / m.cfg.BudgetW
			}
			if st.slow.n >= energyMinSamples {
				s.SlowBurn = st.slow.watts() / m.cfg.BudgetW
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// TotalJ returns the meter-wide total.
func (m *EnergyMeter) TotalJ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := 0.0
	for _, st := range m.streams {
		t += st.totalJ
	}
	return t
}

// Skipped returns how many events were dropped for lack of a usable
// platform power model.
func (m *EnergyMeter) Skipped() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.skipped
}

// BudgetW returns the configured budget (0 = burn tracking off).
func (m *EnergyMeter) BudgetW() float64 { return m.cfg.BudgetW }
