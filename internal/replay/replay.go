// Package replay is the offline counterfactual-analysis engine over
// decision traces. It ingests obs.DecisionEvent logs (written by
// `dvfssim -trace` or `dvfsd -trace`), reconstructs the energy the
// traced policy spent — attributing it to execution, predictor
// overhead, DVFS transitions, and idle slack exactly the way the
// simulator's energy meter does — and then re-decides every job under
// counterfactual policies: the oracle (minimum level meeting the
// deadline given the observed time, overheads removed, as in the
// paper's Fig 18 analysis), the performance and powersave governors,
// the PID baseline, and what-if margin/α sweeps of the predictor
// itself. The output answers the two questions a production log
// cannot: "what would a different policy have cost us?" and "how much
// headroom does the current one have?" — the Mantis-style validation
// loop, run from logs instead of re-running workloads.
//
// Counterfactual execution times come from the trace itself: for
// predicted decisions the logged (tfmin, tfmax) pair is solved into
// the per-job two-point model t = Tmem + Ndep/f and rescaled so it
// reproduces the observed time at the observed level; for unpredicted
// decisions the workload's memory-time fraction ρ translates the
// observed time across frequencies. No workload program, model, or
// feature vector is needed — only the log and the platform.
package replay

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dvfs"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Options configures a replay. Plat is required; everything else has
// defaults.
type Options struct {
	// Plat is the platform the trace was recorded on. Replay
	// cross-checks every event's FreqKHz against it and fails on a
	// mismatch rather than attributing energy from the wrong tables.
	Plat *platform.Platform
	// Seed drives the counterfactual timelines' switch-latency jitter
	// and the switch-table measurement; the same seed reproduces every
	// number bit-for-bit. Zero → 1. Counterfactual transitions are
	// priced from one 95th-percentile switch table per (platform,
	// seed), measured once per Run or RunFleet and only read by every
	// group and worker.
	Seed int64
	// Rho is the fallback memory-time fraction ρ = Tmem/t used to
	// translate observed execution times across frequencies when a
	// job carries no prediction (and for traces from non-predicting
	// governors entirely); zero → 0.3. Predicted jobs estimate ρ from
	// their own two-point models instead.
	Rho float64
	// Margins is the what-if margin sweep for the predictor; nil →
	// {0, 0.05, 0.10, 0.15, 0.20, 0.30}.
	Margins []float64
	// Alphas is the what-if α sweep (the §3.3 under-prediction penalty
	// weight); nil → {1, 10, 100, 1000}. The sweep shifts predictions
	// by the difference between the residual distribution's
	// α′/(1+α′)- and TracedAlpha/(1+TracedAlpha)-quantiles — the
	// first-order effect of retraining with a different α.
	Alphas []float64
	// TracedAlpha is the α the traced model was trained with (it is
	// not recorded in the log); zero → 100, the paper's value.
	TracedAlpha float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Rho <= 0 || o.Rho >= 1 {
		o.Rho = 0.3
	}
	if o.Margins == nil {
		o.Margins = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30}
	}
	if o.Alphas == nil {
		o.Alphas = []float64{1, 10, 100, 1000}
	}
	if o.TracedAlpha <= 0 {
		o.TracedAlpha = 100
	}
	return o
}

// Outcome is one policy's (or the traced reconstruction's) aggregate
// over a group.
type Outcome struct {
	EnergyJ     float64            `json:"energy_j"`
	Breakdown   platform.Breakdown `json:"breakdown"`
	DurationSec float64            `json:"duration_sec"`
	Misses      int                `json:"misses"`
	MissRate    float64            `json:"miss_rate"`
	// Levels is per-level decision occupancy, ascending by index.
	Levels []obs.LevelOccupancy `json:"levels,omitempty"`
}

// PolicyResult is one counterfactual policy's outcome, normalized
// against the performance governor and compared to the trace.
type PolicyResult struct {
	Name string `json:"name"`
	Outcome
	// NormEnergyPct is energy as a percentage of the performance
	// policy's (the paper's normalization).
	NormEnergyPct float64 `json:"norm_energy_pct"`
	// DeltaEnergyPct is the energy change vs. the traced
	// reconstruction, in percent (negative = the counterfactual is
	// cheaper).
	DeltaEnergyPct float64 `json:"delta_energy_pct"`
	// DeltaMissRate is the miss-rate change vs. the trace, in points.
	DeltaMissRate float64 `json:"delta_miss_rate"`
}

// SweepPoint is one setting of a what-if parameter sweep.
type SweepPoint struct {
	Param         float64 `json:"param"`
	EnergyJ       float64 `json:"energy_j"`
	NormEnergyPct float64 `json:"norm_energy_pct"`
	Misses        int     `json:"misses"`
	MissRate      float64 `json:"miss_rate"`
}

// GroupResult is the full analysis of one (workload, governor) stream.
type GroupResult struct {
	Workload string `json:"workload"`
	Governor string `json:"governor"`
	Jobs     int    `json:"jobs"`
	// Predicted counts jobs carrying a model prediction.
	Predicted int `json:"predicted"`
	// PeriodSec and BudgetSec are inferred from the trace (release
	// spacing and deadline − release).
	PeriodSec float64 `json:"period_sec"`
	BudgetSec float64 `json:"budget_sec"`
	// Rho is the memory-time fraction used for time translation.
	Rho float64 `json:"rho"`
	// Approx lists reasons the traced reconstruction is approximate
	// (empty = the energy model matches the simulator's exactly).
	Approx []string `json:"approx,omitempty"`
	// Traced is the reconstruction of what the trace actually spent.
	Traced Outcome `json:"traced"`
	// Policies holds the counterfactuals in deterministic order.
	Policies []PolicyResult `json:"policies"`
	// MarginSweep and AlphaSweep are predictor what-ifs (only for
	// groups with predictions).
	MarginSweep []SweepPoint `json:"margin_sweep,omitempty"`
	AlphaSweep  []SweepPoint `json:"alpha_sweep,omitempty"`
}

// Policy returns the named policy result (nil when absent).
func (g *GroupResult) Policy(name string) *PolicyResult {
	for i := range g.Policies {
		if g.Policies[i].Name == name {
			return &g.Policies[i]
		}
	}
	return nil
}

// Result is a full replay over a log.
type Result struct {
	Platform string `json:"platform"`
	// Events is the total event count ingested; Skipped counts events
	// that could not be replayed (no outcome recorded, one-shot
	// serving predictions, unknown levels are an error instead).
	Events  int           `json:"events"`
	Skipped int           `json:"skipped"`
	SeqGaps int           `json:"seq_gaps,omitempty"`
	Groups  []GroupResult `json:"groups"`
}

// Group returns the result for (workload, governor), nil when absent.
func (r *Result) Group(workload, governor string) *GroupResult {
	for i := range r.Groups {
		if r.Groups[i].Workload == workload && r.Groups[i].Governor == governor {
			return &r.Groups[i]
		}
	}
	return nil
}

// job is one replayable decision: the trace's scheduling facts plus
// the model that translates its execution time across levels.
type job struct {
	idx               int
	release, deadline float64
	start             float64
	predictorSec      float64
	from, level       int
	measSwitchSec     float64
	switchEstSec      float64
	actual            float64
	missed            bool
	predicted         bool
	tfmin, tfmax      float64
	margin            float64
	residual          float64

	// tp is the per-job two-point model solved from (tfmin, tfmax);
	// tpObs is its prediction at the observed level — the scaling
	// anchor. hasTP is set when both are usable.
	tp    dvfs.TwoPoint
	tpObs float64
	hasTP bool
}

// timeAt translates the job's observed execution time to level l.
func (j *job) timeAt(l platform.Level, obsLevel platform.Level, rho float64) float64 {
	if j.hasTP {
		return j.actual / j.tpObs * j.tp.TimeAt(l.EffFreqHz())
	}
	return j.actual * (rho + (1-rho)*obsLevel.EffFreqHz()/l.EffFreqHz())
}

// group is one (workload, governor) stream under reconstruction.
type group struct {
	workload, governor string
	jobs               []*job
	period, budget     float64
	rho                float64
	approx             []string
	hasSched           bool
}

// Run replays a decision log. Events without a recorded outcome are
// skipped (a one-shot dvfsd prediction has no execution time to
// replay); an event whose frequency does not exist on opts.Plat is an
// error — the trace belongs to a different platform.
func Run(events []obs.DecisionEvent, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Plat == nil {
		return nil, fmt.Errorf("replay: Options.Plat is required")
	}
	tb := newTables(opts.Plat, opts.Seed)
	tb.jitter = switchJitter(opts.Seed, len(events))
	res, err := replayDevice(events, opts, tb)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return res, nil
}

// tables are what replay on one platform prices with and only reads:
// the 95th-percentile switch table for counterfactual transitions, the
// power table for every segment, and the standard normal deviates that
// price each counterfactual run's switches, the k-th switch at
// jitter[k]. The tables are pure functions of (plat, seed), so one
// pair serves every group of a Run and every device of a RunFleet on
// that platform; the deviates are drawn once per Run or RunFleet.
type tables struct {
	sw     *platform.SwitchTable
	power  *platform.PowerTable
	jitter []float64
}

func newTables(plat *platform.Platform, seed int64) tables {
	return tables{
		sw:    platform.MeasureSwitchTable(plat, 500, 0.95, seed+2000),
		power: platform.NewPowerTable(plat),
	}
}

// switchJitter draws the deviates a replay prices its counterfactual
// switches with: the first n standard normal draws of the seed's
// stream. A run switches at most once per job, so n must be at least
// the job count of the longest group replayed.
func switchJitter(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	return z
}

// replayDevice is Run after defaulting: opts has been through
// withDefaults, and tb holds newTables(opts.Plat, opts.Seed) and at
// least len(events) deviates, which it only reads. Its errors carry
// no package prefix; callers add it.
func replayDevice(events []obs.DecisionEvent, opts Options, tb tables) (*Result, error) {
	res := &Result{Platform: opts.Plat.Name, Events: len(events)}
	res.SeqGaps = obs.Analyze(events).SeqGaps

	groups := map[string]*group{}
	var order []string
	for i := range events {
		e := &events[i]
		if !e.Done {
			res.Skipped++
			continue
		}
		if e.FreqKHz != 0 {
			if _, ok := opts.Plat.LevelByFreqKHz(e.FreqKHz); !ok {
				return nil, fmt.Errorf("event seq %d runs at %d kHz which is not a level of platform %s — was the trace recorded on a different platform?",
					e.Seq, e.FreqKHz, opts.Plat.Name)
			}
		}
		if e.Level < 0 || e.Level >= opts.Plat.NumLevels() {
			return nil, fmt.Errorf("event seq %d selects level %d outside platform %s's %d levels",
				e.Seq, e.Level, opts.Plat.Name, opts.Plat.NumLevels())
		}
		key := e.Workload + "\x00" + e.Governor
		g := groups[key]
		if g == nil {
			g = &group{workload: e.Workload, governor: e.Governor}
			groups[key] = g
			order = append(order, key)
		}
		g.add(e, opts.Plat)
	}
	sort.Strings(order)

	for _, key := range order {
		g := groups[key]
		g.finish(opts)
		if len(g.jobs) == 0 {
			continue
		}
		res.Groups = append(res.Groups, analyzeGroup(g, opts, tb))
	}
	return res, nil
}

// add ingests one completed event.
func (g *group) add(e *obs.DecisionEvent, plat *platform.Platform) {
	j := &job{
		idx:           e.Job,
		start:         e.TimeSec,
		predictorSec:  e.PredictorSec,
		level:         e.Level,
		measSwitchSec: e.MeasSwitchSec,
		switchEstSec:  e.SwitchSec,
		actual:        e.ActualExecSec,
		missed:        e.Missed,
		margin:        e.Margin,
	}
	if e.DeadlineSec > 0 {
		// New-style event: scheduling fields are authoritative.
		j.release = e.ReleaseSec
		j.deadline = e.DeadlineSec
		j.from = e.FromLevel
		g.hasSched = true
	} else {
		// Pre-FromLevel log: assume the decision time is the release
		// and fall back to the stream's budget field; the caller's
		// finish() pass fills from-levels by chaining.
		j.release = e.TimeSec
		j.deadline = e.TimeSec + e.BudgetSec
		j.from = -1
	}
	if e.Predicted && e.TFminSec > 0 && e.TFmaxSec > 0 {
		j.predicted = true
		j.tfmin, j.tfmax = e.TFminSec, e.TFmaxSec
		j.residual = e.ResidualSec
		tp := dvfs.Solve(e.TFminSec, e.TFmaxSec,
			plat.MinLevel().EffFreqHz(), plat.MaxLevel().EffFreqHz())
		if lv, err := plat.Level(e.Level); err == nil {
			if at := tp.TimeAt(lv.EffFreqHz()); at > 0 && j.actual > 0 {
				j.tp, j.tpObs, j.hasTP = tp, at, true
			}
		}
	}
	g.jobs = append(g.jobs, j)
}

// finish sorts the group, infers period/budget/ρ, chains missing
// from-levels, and records approximation reasons.
func (g *group) finish(opts Options) {
	sort.SliceStable(g.jobs, func(i, k int) bool {
		if g.jobs[i].start != g.jobs[k].start {
			return g.jobs[i].start < g.jobs[k].start
		}
		return g.jobs[i].idx < g.jobs[k].idx
	})

	// Period: median spacing of releases; budget: deadline − release.
	var gaps []float64
	for i := 1; i < len(g.jobs); i++ {
		if d := g.jobs[i].release - g.jobs[i-1].release; d > 0 {
			gaps = append(gaps, d)
		}
	}
	if len(gaps) > 0 {
		sort.Float64s(gaps)
		g.period = gaps[len(gaps)/2]
	}
	if len(g.jobs) > 0 {
		g.budget = g.jobs[0].deadline - g.jobs[0].release
	}
	if g.period <= 0 {
		g.period = g.budget
	}

	// Chain from-levels for old logs: the platform stays at the level
	// the previous job selected; the simulator starts at max.
	maxIdx := opts.Plat.MaxLevel().Index
	prev := maxIdx
	chained := false
	for _, j := range g.jobs {
		if j.from < 0 {
			j.from = prev
			chained = true
		}
		prev = j.level
	}
	if chained {
		g.approx = append(g.approx,
			"trace predates from_level/deadline fields: from-levels chained, releases assumed at decision times")
	}
	// A from-level that is not the previous job's selection means the
	// platform moved between jobs (idle-drop switching or a sampling
	// governor) — that transition's time and energy are not in the
	// per-job records, so the reconstruction is a lower bound there.
	prev = maxIdx
	moved := false
	midJob := false
	for _, j := range g.jobs {
		if j.from != prev {
			moved = true
		}
		if j.measSwitchSec > 0 && j.from == j.level {
			midJob = true
		}
		prev = j.level
	}
	if moved {
		g.approx = append(g.approx,
			"platform level changed between jobs (idle-drop or sampling governor): inter-job transitions are unrecorded")
	}
	if midJob {
		g.approx = append(g.approx,
			"mid-job transitions present (sampling governor): single-level execution assumed")
	}

	// ρ: mean Tmem share at fmax over predicted jobs, else the option.
	g.rho = opts.Rho
	fmax := opts.Plat.MaxLevel().EffFreqHz()
	sum, n := 0.0, 0
	for _, j := range g.jobs {
		if !j.hasTP {
			continue
		}
		if at := j.tp.TimeAt(fmax); at > 0 {
			sum += j.tp.TmemSec / at
			n++
		}
	}
	if n > 0 {
		r := sum / float64(n)
		if r > 0 && r < 1 {
			g.rho = r
		}
	}
}

// levelOccupancy turns per-level decision counts into the shared
// report shape.
func levelOccupancy(counts map[int]int, total int) []obs.LevelOccupancy {
	if total == 0 {
		return nil
	}
	idxs := make([]int, 0, len(counts))
	for l := range counts {
		idxs = append(idxs, l)
	}
	sort.Ints(idxs)
	out := make([]obs.LevelOccupancy, 0, len(idxs))
	for _, l := range idxs {
		out = append(out, obs.LevelOccupancy{
			Level: l, Count: counts[l], Frac: float64(counts[l]) / float64(total),
		})
	}
	return out
}
