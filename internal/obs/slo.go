package obs

import (
	"math"
	"sort"
	"sync"
)

// SLOConfig parameterizes the deadline-miss SLO tracker. The zero
// value selects production-style defaults: a 1% miss-rate objective
// watched over a fast 128-job window and a slow 2048-job window,
// counted in jobs rather than wall time because the interactive
// workloads here are periodic job streams and a job count is
// deterministic under simulation.
type SLOConfig struct {
	// Target is the acceptable deadline-miss fraction; zero → 0.01.
	// (A negative value is clamped to 0.01; an SLO of "zero misses
	// ever" would make any single miss an infinite burn, so express
	// strict SLOs as a small positive target instead.)
	Target float64
	// FastWindow and SlowWindow are the sliding-window sizes in
	// completed jobs; zero → 128 and 2048.
	FastWindow int
	SlowWindow int
	// MaxKeys bounds the number of distinct keys the tracker will
	// allocate windows for; zero → unbounded. Fleet mode derives keys
	// from untrusted traces, so it sets a bound: once reached,
	// observations for new keys fold into the catch-all OverflowKey so
	// totals stay accurate while memory stays fixed.
	MaxKeys int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Target <= 0 {
		c.Target = 0.01
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 128
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 2048
	}
	return c
}

// The burn-rate thresholds (observed miss rate ÷ Target) of the
// multi-window multi-burn-rate pattern: a key latches Alerting once it
// has completed sloMinSamples jobs and both windows burn at or above
// their thresholds. SLOSlowBurn is exported because the alert engine's
// built-in slo_burn rule fires on the same slow-window boundary.
const (
	sloFastBurn   = 10.0
	SLOSlowBurn   = 2.0
	sloMinSamples = 32
)

// SLOTracker maintains keyed deadline-miss burn rates over two sliding
// windows. The fast window catches sharp regressions (a bad model
// push) within ~a hundred jobs; the slow window keeps the status from
// flapping on short bursts that the error budget can absorb. Each key
// carries an Alerting status bit, latched when both windows burn past
// their thresholds and cleared with hysteresis once both fall below
// half of them. The tracker itself notifies no one: dvfsd exports the
// burn rates as gauges and its alert engine's slo_burn rule owns the
// alert lifecycle, while the latch is what /debug/slo (and the SLO
// section of /debug/dash) and dvfsreplay print.
type SLOTracker struct {
	cfg SLOConfig

	mu  sync.Mutex
	per map[string]*sloState
}

type sloState struct {
	fast, slow missWindow
	total      int64
	misses     int64
	alerting   bool
}

// missWindow is a fixed-size circular buffer of deadline outcomes.
type missWindow struct {
	bits   []bool
	next   int
	filled bool
	misses int
}

func (w *missWindow) push(missed bool) {
	if w.filled && w.bits[w.next] {
		w.misses--
	}
	w.bits[w.next] = missed
	if missed {
		w.misses++
	}
	w.next++
	if w.next == len(w.bits) {
		w.next = 0
		w.filled = true
	}
}

func (w *missWindow) size() int {
	if w.filled {
		return len(w.bits)
	}
	return w.next
}

func (w *missWindow) rate() float64 {
	n := w.size()
	if n == 0 {
		return 0
	}
	return float64(w.misses) / float64(n)
}

// NewSLOTracker returns a tracker with the given configuration.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{cfg: cfg.withDefaults(), per: map[string]*sloState{}}
}

// Target returns the configured miss-rate objective.
func (t *SLOTracker) Target() float64 { return t.cfg.Target }

// OverflowKey receives observations for keys beyond the MaxKeys bound.
const OverflowKey = "_overflow"

// FleetKey is the key under which ObserveEvent tracks the whole
// fleet's aggregate burn rate.
const FleetKey = "fleet"

// ObserveEvent feeds a completed decision event under fleet keys: the
// aggregate FleetKey plus "platform:<name>" and "workload:<name>"
// breakdowns when the event carries them. dvfsd's /v1/fleet/ingest
// endpoint and the fleet replay engine feed it this way. Events that
// have not completed carry no deadline outcome and are ignored.
func (t *SLOTracker) ObserveEvent(e *DecisionEvent) {
	if e == nil || !e.Done {
		return
	}
	t.Observe(FleetKey, e.Missed)
	if e.Platform != "" {
		t.Observe("platform:"+e.Platform, e.Missed)
	}
	if e.Workload != "" {
		t.Observe("workload:"+e.Workload, e.Missed)
	}
}

// Observe feeds one completed job's deadline outcome for a key and
// re-evaluates its status bit.
func (t *SLOTracker) Observe(key string, missed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.per[key]
	if st == nil {
		if t.cfg.MaxKeys > 0 && len(t.per) >= t.cfg.MaxKeys {
			// At the key bound: fold into the catch-all window instead
			// of allocating a new one (creating the catch-all itself may
			// exceed the bound by one — the bound is about untrusted
			// cardinality, not an exact count).
			key = OverflowKey
			st = t.per[key]
		}
		if st == nil {
			st = &sloState{
				fast: missWindow{bits: make([]bool, t.cfg.FastWindow)},
				slow: missWindow{bits: make([]bool, t.cfg.SlowWindow)},
			}
			t.per[key] = st
		}
	}
	st.fast.push(missed)
	st.slow.push(missed)
	st.total++
	if missed {
		st.misses++
	}

	fastBurn := st.fast.rate() / t.cfg.Target
	slowBurn := st.slow.rate() / t.cfg.Target
	switch {
	case !st.alerting && st.total >= sloMinSamples &&
		fastBurn >= sloFastBurn && slowBurn >= SLOSlowBurn:
		st.alerting = true
	case st.alerting && fastBurn < sloFastBurn/2 && slowBurn < SLOSlowBurn/2:
		st.alerting = false
	}
}

// SLOStatus is one key's current SLO state, as served by dvfsd's GET
// /debug/slo and printed by dvfsreplay. Workload holds the key.
type SLOStatus struct {
	Workload string  `json:"workload"`
	Target   float64 `json:"target"`
	Jobs     int64   `json:"jobs"`
	Misses   int64   `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Alerting bool    `json:"alerting"`
}

func (t *SLOTracker) statusLocked(key string, st *sloState) SLOStatus {
	s := SLOStatus{
		Workload: key,
		Target:   t.cfg.Target,
		Jobs:     st.total,
		Misses:   st.misses,
		FastBurn: st.fast.rate() / t.cfg.Target,
		SlowBurn: st.slow.rate() / t.cfg.Target,
		Alerting: st.alerting,
	}
	if st.total > 0 {
		s.MissRate = float64(st.misses) / float64(st.total)
	}
	return s
}

// Snapshot returns every observed key's status, sorted by key.
func (t *SLOTracker) Snapshot() []SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.per))
	for name := range t.per {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SLOStatus, 0, len(names))
	for _, name := range names {
		out = append(out, t.statusLocked(name, t.per[name]))
	}
	return out
}

// BurnRates returns the key's current fast- and slow-window burn
// rates (NaN with no observations).
func (t *SLOTracker) BurnRates(key string) (fast, slow float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.per[key]
	if st == nil {
		return math.NaN(), math.NaN()
	}
	return st.fast.rate() / t.cfg.Target, st.slow.rate() / t.cfg.Target
}
