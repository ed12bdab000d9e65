package platform

import "sync"

// The segment pricer: the one place that turns a decision's idle,
// predictor, switch and execution seconds into joules. The paper
// charges every job the same segments (§3.4, §5.1) — the predictor
// slice and the DVFS transition come out of the budget, execution runs
// at the chosen level, and the core idles between jobs — and replay's
// reconstruction and counterfactuals, the live energy meter, and the
// fleet estimator all price them here.

// Breakdown attributes energy to activities [J].
type Breakdown struct {
	// ExecJ is energy spent executing jobs.
	ExecJ float64 `json:"exec_j"`
	// PredictorJ is energy spent running prediction slices (in the
	// simulator, including helper-core energy under overlapped
	// placements).
	PredictorJ float64 `json:"predictor_j"`
	// SwitchJ is energy spent in DVFS transitions.
	SwitchJ float64 `json:"switch_j"`
	// IdleJ is energy spent between jobs.
	IdleJ float64 `json:"idle_j"`
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 { return b.ExecJ + b.PredictorJ + b.SwitchJ + b.IdleJ }

// PowerTable is a platform's power curves flattened into
// index-addressed tables, so a segment prices with two loads and a
// multiply instead of a Level lookup that can fail. Entries equal
// ActivePower, IdlePower and SwitchPower bit for bit. A table is
// read-only once built, so one table serves every goroutine pricing on
// its platform. Level indices outside the platform clamp to the top
// level.
type PowerTable struct {
	active []float64
	idle   []float64
	sw     [][]float64 // [from][to]
}

// NewPowerTable flattens p's power model.
func NewPowerTable(p *Platform) *PowerTable {
	n := p.NumLevels()
	t := &PowerTable{
		active: make([]float64, n),
		idle:   make([]float64, n),
		sw:     make([][]float64, n),
	}
	for i, l := range p.Levels {
		t.active[i] = p.ActivePower(l)
		t.idle[i] = p.IdlePower(l)
		t.sw[i] = make([]float64, n)
		for j, to := range p.Levels {
			t.sw[i][j] = p.SwitchPower(l, to)
		}
	}
	return t
}

// sharedTable is one ByName platform's table, built on first use so a
// program that never prices pays nothing at start-up.
type sharedTable struct {
	once sync.Once
	mk   func() *Platform
	t    *PowerTable
}

func (s *sharedTable) build() { s.t = NewPowerTable(s.mk()) }

// powerTables holds one sharedTable per ByName platform.
var powerTables = func() map[string]*sharedTable {
	m := make(map[string]*sharedTable, len(constructors))
	for name, mk := range constructors {
		m[name] = &sharedTable{mk: mk}
	}
	return m
}()

// PowerTableByName returns the shared table of the ByName platform
// called name; ok is false when ByName does not know it.
func PowerTableByName(name string) (*PowerTable, bool) {
	s, ok := powerTables[name]
	if !ok {
		return nil, false
	}
	s.once.Do(s.build)
	return s.t, true
}

// level clamps a level index into the table.
func (t *PowerTable) level(i int) int {
	if i < 0 || i >= len(t.active) {
		return len(t.active) - 1
	}
	return i
}

// Active returns the active power of level i in watts.
func (t *PowerTable) Active(i int) float64 { return t.active[t.level(i)] }

// idleEps is the longest gap left uncharged: summed segment times leave
// floating-point residue, not idleness.
const idleEps = 1e-12

// Timeline accumulates one device's energy segment by segment, in the
// order the simulator runs them: idle up to each job at the pre-switch
// level, the job's predictor, transition and execution, and a final
// drain to the horizon. Now is the accounting clock in trace seconds.
type Timeline struct {
	Now float64
	Breakdown
}

// IdleUntil moves the clock to t, charging idle power at level `at`
// for the gap, and returns the joules charged. A gap of at most
// 1e-12 s moves the clock without a charge; t ≤ Now does nothing.
func (tl *Timeline) IdleUntil(pt *PowerTable, t float64, at int) float64 {
	if t <= tl.Now {
		return 0
	}
	var j float64
	if gap := t - tl.Now; gap > idleEps {
		j = pt.idle[pt.level(at)] * gap
		tl.IdleJ += j
	}
	tl.Now = t
	return j
}

// Job charges one job from the clock onward: predSec of predictor at
// level from, swSec of transition at SwitchPower(from, to), then
// execSec of execution at level to. A segment whose duration is not
// positive charges nothing. It returns the job's charge (IdleJ zero).
func (tl *Timeline) Job(pt *PowerTable, from, to int, predSec, swSec, execSec float64) Breakdown {
	from, to = pt.level(from), pt.level(to)
	var c Breakdown
	if predSec > 0 {
		c.PredictorJ = pt.active[from] * predSec
		tl.PredictorJ += c.PredictorJ
		tl.Now += predSec
	}
	if swSec > 0 {
		c.SwitchJ = pt.sw[from][to] * swSec
		tl.SwitchJ += c.SwitchJ
		tl.Now += swSec
	}
	if execSec > 0 {
		c.ExecJ = pt.active[to] * execSec
		tl.ExecJ += c.ExecJ
		tl.Now += execSec
	}
	return c
}

// Drain charges idle power at level `at` from the clock out to
// horizon, when horizon is later, and moves the clock there.
func (tl *Timeline) Drain(pt *PowerTable, horizon float64, at int) {
	if horizon > tl.Now {
		tl.IdleJ += pt.idle[pt.level(at)] * (horizon - tl.Now)
		tl.Now = horizon
	}
}
