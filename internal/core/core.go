// Package core assembles the paper's framework (Fig 13): given an
// annotated task, it instruments control-flow features, profiles the
// task off-line at the minimum and maximum frequencies, trains the
// asymmetric-Lasso execution-time models, slices the program down to
// the selected features, and produces the run-time DVFS predictor —
// a governor.Governor that, before each job, runs the prediction
// slice, predicts the job's execution time, and picks the lowest
// frequency that just meets the response-time deadline.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/dvfs"
	"repro/internal/features"
	"repro/internal/governor"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/regress"
	"repro/internal/slicer"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// Config parameterizes controller construction. Zero values select the
// paper's settings.
type Config struct {
	// Plat is the target platform; nil selects the ODROID-XU3 A7.
	Plat *platform.Platform
	// ProfileJobs is the number of profiling jobs; zero selects the
	// workload's evaluation job count.
	ProfileJobs int
	// ProfileSeed drives profiling inputs and measurement noise.
	ProfileSeed int64
	// Alpha is the under-prediction penalty weight (§3.3); zero → 100.
	Alpha float64
	// Gamma is the Lasso feature-selection weight; zero → 1e-3.
	Gamma float64
	// Margin is the prediction safety margin (§3.4); zero → 0.10,
	// negative → 0.
	Margin float64
	// NoiseSigma models measurement noise during profiling;
	// zero → 0.05, negative → 0.
	NoiseSigma float64
	// Switch is the switch-time estimate table; nil measures the
	// 95th-percentile table on Plat (Fig 11).
	Switch *platform.SwitchTable
	// KeepAllFeatures disables Lasso-driven slice reduction (ablation):
	// the slice computes every feature even when its coefficient is 0.
	KeepAllFeatures bool
	// UseHints appends the workload's programmer-provided hint values
	// (§3.5) as extra feature columns beyond the automatically
	// generated control-flow features.
	UseHints bool
	// MaxPredictorSec, when positive, caps the prediction slice's
	// average execution time at maximum frequency by iteratively
	// dropping the costliest features and retraining — §3.5's
	// "features over some overhead threshold could be explicitly
	// disallowed".
	MaxPredictorSec float64
	// MaxSliceBudgetFrac, when positive, caps the slice's *static
	// worst-case* execution time at maximum frequency to this fraction
	// of the workload's budget, using internal/analysis loop-bound
	// intervals over the observed profiling input ranges. Where
	// MaxPredictorSec trims by measured average cost, this bound makes
	// §3.4's predictor-overhead subtraction safe against the worst
	// job: a slice whose bound exceeds the cap has features dropped
	// until it fits, and Build fails if no slice can fit.
	MaxSliceBudgetFrac float64
	// Quadratic extends the model with squared counter features —
	// §3.5's "higher-order ... models may provide better accuracy"
	// option. The paper found "relatively little gain" for its
	// benchmarks; RunQuadratic measures the same comparison here.
	Quadratic bool
	// EnergyAware switches level selection from the paper's
	// minimum-feasible-frequency rule to minimum-estimated-energy —
	// only meaningful on heterogeneous grids (see dvfs.Selector).
	EnergyAware bool
}

func (c Config) withDefaults(w *workload.Workload) Config {
	if c.Plat == nil {
		c.Plat = platform.ODROIDXU3A7()
	}
	if c.ProfileJobs == 0 {
		c.ProfileJobs = w.EvalJobs
	}
	if c.Alpha == 0 {
		c.Alpha = 100
	}
	if c.Gamma == 0 {
		c.Gamma = 1e-3
	}
	if c.Margin == 0 {
		c.Margin = 0.10
	}
	if c.Margin < 0 {
		c.Margin = 0
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.05
	}
	if c.NoiseSigma < 0 {
		c.NoiseSigma = 0
	}
	if c.Switch == nil {
		c.Switch = platform.MeasureSwitchTable(c.Plat, 500, 0.95, c.ProfileSeed+97)
	}
	return c
}

// Profile holds the off-line profiling dataset: one row per job.
type Profile struct {
	// X are feature vectors under Schema.
	X [][]float64
	// TimesMin and TimesMax are measured job times (seconds) at the
	// minimum and maximum frequencies.
	TimesMin, TimesMax []float64
}

// Controller is the generated prediction-based DVFS controller. It
// implements governor.Governor, and any number of goroutines may share
// one.
type Controller struct {
	W      *workload.Workload
	Plat   *platform.Platform
	Instr  *instrument.Program
	Slice  *slicer.Slice
	Schema *features.Schema
	// ModelMin and ModelMax predict job time at fmin / fmax.
	ModelMin, ModelMax *regress.Model
	Selector           *dvfs.Selector
	Prof               *Profile
	// hints are programmer-provided feature parameters appended after
	// the schema columns (empty unless Config.UseHints).
	hints []workload.Hint
	// memFrac caches the profiled memory fraction; loaded controllers
	// carry it in place of the profiling data.
	memFrac float64
	// quadCols lists schema column indices whose squares are appended
	// as extra features (empty unless Config.Quadratic).
	quadCols []int
	// SliceBound is the static worst-case cost bound of the final
	// slice over the observed profiling input ranges, and
	// SliceBoundSec its execution time at maximum frequency —
	// math.Inf(1) when a loop bound could not be derived. Loaded
	// controllers (persist) leave both zero.
	SliceBound analysis.CostBound
	// SliceBoundSec is SliceBound converted to seconds at fmax.
	SliceBoundSec float64

	// Base supplies the no-op JobEnd: the predictor is feed-forward
	// (§3.4), so a job's outcome never reaches the controller, which
	// holds no mutable state after Build.
	governor.Base
}

var _ governor.Governor = (*Controller)(nil)

// Build constructs the controller for a workload: instrument → profile
// → train → slice (Fig 13's off-line half). It is BuildEach for one
// configuration.
func Build(w *workload.Workload, cfg Config) (*Controller, error) {
	ctls, err := BuildEach(w, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return ctls[0], nil
}

// BuildEach trains one controller per configuration from a single
// profiling run: the controllers equal what Build returns for each
// configuration, but the workload is instrumented and its profiling
// jobs interpreted once, not once per configuration. The profiled
// features and each job's CPU and memory work depend only on the
// workload, ProfileSeed and ProfileJobs; the platform enters when
// training converts that work into noisy times at fmin and fmax. So
// configurations may differ in everything else — platform, switch
// table, α, γ, margin, hints, caps — and must agree on those two
// after defaults. The profile is dropped when BuildEach returns;
// the controllers keep only their own training data (Controller.Prof).
func BuildEach(w *workload.Workload, cfgs []Config) ([]*Controller, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	cfgs = append([]Config(nil), cfgs...)
	for i := range cfgs {
		cfgs[i] = cfgs[i].withDefaults(w)
		if cfgs[i].ProfileSeed != cfgs[0].ProfileSeed || cfgs[i].ProfileJobs != cfgs[0].ProfileJobs {
			return nil, fmt.Errorf("core: BuildEach needs one profile, but config %d profiles %d jobs at seed %d and config 0 %d jobs at seed %d",
				i, cfgs[i].ProfileJobs, cfgs[i].ProfileSeed, cfgs[0].ProfileJobs, cfgs[0].ProfileSeed)
		}
	}
	pr, err := profile(w, cfgs[0].ProfileSeed, cfgs[0].ProfileJobs)
	if err != nil {
		return nil, err
	}
	out := make([]*Controller, len(cfgs))
	for i, cfg := range cfgs {
		if out[i], err = pr.train(w, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// profileRun is the platform-independent half of off-line profiling:
// the instrumented program, its feature schema, and for each profiling
// job the recorded features, the abstract work the interpreter
// counted, and the job's inputs.
type profileRun struct {
	ip        *instrument.Program
	schema    *features.Schema
	traces    []*features.Trace
	works     []taskir.Work
	paramSets []map[string]int64
	// bounds are the per-parameter input ranges the profiling jobs
	// covered — what the static slice-cost bound is taken over.
	bounds map[string]analysis.Interval
}

// profile instruments w and runs the instrumented task over `jobs`
// sample inputs drawn from seed, collecting each job's feature trace
// and work.
func profile(w *workload.Workload, seed int64, jobs int) (*profileRun, error) {
	if err := w.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid task program: %w", err)
	}
	pr := &profileRun{
		ip:        instrument.Instrument(w.Prog),
		traces:    make([]*features.Trace, 0, jobs),
		works:     make([]taskir.Work, 0, jobs),
		paramSets: make([]map[string]int64, 0, jobs),
	}
	gen := w.NewGen(seed)
	globals := w.FreshGlobals()
	prog := taskir.Lower(pr.ip.Prog)
	for i := 0; i < jobs; i++ {
		tr := features.NewTrace()
		env := taskir.NewEnv(globals)
		params := gen.Next(i)
		env.SetParams(params)
		wk, err := prog.Run(env, taskir.RunOptions{Recorder: tr})
		if err != nil {
			return nil, fmt.Errorf("core: profiling %s job %d: %w", w.Name, i, err)
		}
		pr.traces = append(pr.traces, tr)
		pr.works = append(pr.works, wk)
		pr.paramSets = append(pr.paramSets, params)
	}
	pr.schema = features.BuildSchema(pr.ip, pr.traces)
	pr.bounds = observedParamBounds(pr.paramSets)
	return pr, nil
}

// train is the per-configuration half of Build: time the profiled work
// on cfg's platform with measurement noise, fit both models, slice,
// apply the overhead caps, and verify the slice. cfg has been through
// withDefaults. train only reads pr.
func (pr *profileRun) train(w *workload.Workload, cfg Config) (*Controller, error) {
	ip, schema := pr.ip, pr.schema
	var hints []workload.Hint
	if cfg.UseHints {
		hints = w.Hints
	}
	var quadCols []int
	rng := rand.New(rand.NewSource(cfg.ProfileSeed + 13))
	prof := &Profile{
		X:        make([][]float64, len(pr.traces)),
		TimesMin: make([]float64, len(pr.traces)),
		TimesMax: make([]float64, len(pr.traces)),
	}
	if cfg.Quadratic {
		// Square the counter columns (squaring a 0/1 one-hot is the
		// identity, so call-address columns are skipped).
		for j, col := range schema.Columns {
			if col.Kind == features.ColCounter {
				quadCols = append(quadCols, j)
			}
		}
	}
	fmin, fmax := cfg.Plat.MinLevel(), cfg.Plat.MaxLevel()
	for i, tr := range pr.traces {
		x := appendHintValues(schema.Vectorize(tr), hints, pr.paramSets[i])
		prof.X[i] = appendQuadValues(x, quadCols)
		wk := pr.works[i]
		prof.TimesMin[i] = cfg.Plat.JobTimeAt(wk.CPU, wk.MemSec, fmin) * noiseFactor(rng, cfg.NoiseSigma)
		prof.TimesMax[i] = cfg.Plat.JobTimeAt(wk.CPU, wk.MemSec, fmax) * noiseFactor(rng, cfg.NoiseSigma)
	}

	opts := regress.Options{Alpha: cfg.Alpha, Gamma: cfg.Gamma}
	modelMin, err := regress.Fit(prof.X, prof.TimesMin, opts)
	if err != nil {
		return nil, fmt.Errorf("core: training fmin model for %s: %w", w.Name, err)
	}
	modelMax, err := regress.Fit(prof.X, prof.TimesMax, opts)
	if err != nil {
		return nil, fmt.Errorf("core: training fmax model for %s: %w", w.Name, err)
	}

	// Features with non-zero coefficients in either model must survive
	// in the prediction slice; everything else is sliced away. A
	// selected squared column keeps its base feature's site.
	var need map[int]bool
	if cfg.KeepAllFeatures {
		need = nil // Extract treats nil as "keep everything"
	} else {
		selected := append(modelMin.Selected(), modelMax.Selected()...)
		base := schema.Dim() + len(hints)
		for i, j := range selected {
			if j >= base {
				selected[i] = quadCols[j-base]
			}
		}
		need = schema.NeededFIDs(selected)
	}
	sl := slicer.Extract(ip, need)

	// Overhead-aware feature selection (§3.5): while the slice's
	// average execution time exceeds the cap, drop the feature whose
	// removal shrinks the slice most, retrain on the surviving
	// columns, and re-slice.
	if cfg.MaxPredictorSec > 0 && !cfg.KeepAllFeatures {
		measured := func(sl *slicer.Slice) float64 { return measureSliceCost(w, sl, cfg) }
		sl, need, modelMin, modelMax, err = trimToCap(w, ip, schema, prof, opts,
			sl, need, modelMin, modelMax, measured, cfg.MaxPredictorSec)
		if err != nil {
			return nil, err
		}
	}

	// Static worst-case overhead cap: bound the slice's statement
	// executions from loop-bound intervals over the observed profiling
	// input ranges, and trim features until the bound fits the
	// configured fraction of the task budget. Unlike the measured cap
	// above, this holds for the worst job the profiled input ranges
	// admit, not just the average — which is what makes subtracting
	// the predictor's cost from the budget (§3.4) safe.
	staticCost := func(sl *slicer.Slice) float64 {
		b := analysis.BoundCost(sl.Prog, pr.bounds)
		if !b.Finite() {
			return math.Inf(1)
		}
		return cfg.Plat.JobTimeAt(b.CPUWork(), 0, cfg.Plat.MaxLevel())
	}
	if cfg.MaxSliceBudgetFrac > 0 && !cfg.KeepAllFeatures && w.DefaultBudgetSec > 0 {
		budgetCap := cfg.MaxSliceBudgetFrac * w.DefaultBudgetSec
		sl, need, modelMin, modelMax, err = trimToCap(w, ip, schema, prof, opts,
			sl, need, modelMin, modelMax, staticCost, budgetCap)
		if err != nil {
			return nil, err
		}
		if c := staticCost(sl); c > budgetCap {
			return nil, fmt.Errorf("core: %s slice worst-case overhead %.3gs exceeds %.0f%% of the %.3gs budget",
				w.Name, c, 100*cfg.MaxSliceBudgetFrac, w.DefaultBudgetSec)
		}
	}

	// Gate: a slice must verify before it may reach a governor. The
	// slicer is an approximation (name-based dependences); the
	// verifier proves the properties the run-time relies on — no
	// retained work, all needed feature sites computed, no read of a
	// sliced-away definition.
	if _, err := analysis.VerifySlice(ip, sl); err != nil {
		return nil, fmt.Errorf("core: %s: %w", w.Name, err)
	}
	bound := analysis.BoundCost(sl.Prog, pr.bounds)
	boundSec := math.Inf(1)
	if bound.Finite() {
		boundSec = cfg.Plat.JobTimeAt(bound.CPUWork(), 0, cfg.Plat.MaxLevel())
	}

	return &Controller{
		W:             w,
		Plat:          cfg.Plat,
		Instr:         ip,
		Slice:         sl,
		Schema:        schema,
		ModelMin:      modelMin,
		ModelMax:      modelMax,
		Selector:      &dvfs.Selector{Plat: cfg.Plat, Switch: cfg.Switch, Margin: cfg.Margin, EnergyAware: cfg.EnergyAware},
		Prof:          prof,
		hints:         hints,
		quadCols:      quadCols,
		SliceBound:    bound,
		SliceBoundSec: boundSec,
	}, nil
}

// trimToCap implements overhead-capped feature selection shared by the
// measured (§3.5) and static-bound caps: while cost(slice) exceeds the
// cap, drop the feature whose removal yields the cheapest slice,
// retrain both models on the surviving columns, and re-slice. The
// candidate scan is in sorted FID order so ties break
// deterministically.
func trimToCap(w *workload.Workload, ip *instrument.Program, schema *features.Schema,
	prof *Profile, opts regress.Options, sl *slicer.Slice, need map[int]bool,
	modelMin, modelMax *regress.Model, cost func(*slicer.Slice) float64, cap float64,
) (*slicer.Slice, map[int]bool, *regress.Model, *regress.Model, error) {
	allowed := map[int]bool{}
	for fid := range need {
		allowed[fid] = true
	}
	Xmask := prof.X
	for len(allowed) > 0 {
		if cost(sl) <= cap {
			break
		}
		// Find the removal with the cheapest resulting slice.
		bestFID, bestCost := -1, math.Inf(1)
		for _, fid := range sortedFIDs(allowed) {
			cand := map[int]bool{}
			for f := range allowed {
				if f != fid {
					cand[f] = true
				}
			}
			if c := cost(slicer.Extract(ip, cand)); c < bestCost {
				bestFID, bestCost = fid, c
			}
		}
		delete(allowed, bestFID)
		// Retrain with the dropped feature's columns zeroed out.
		Xmask = maskColumns(Xmask, schema, allowed)
		var err error
		if modelMin, err = regress.Fit(Xmask, prof.TimesMin, opts); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: retraining fmin model for %s: %w", w.Name, err)
		}
		if modelMax, err = regress.Fit(Xmask, prof.TimesMax, opts); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: retraining fmax model for %s: %w", w.Name, err)
		}
		selected := append(modelMin.Selected(), modelMax.Selected()...)
		need = schema.NeededFIDs(selected)
		for fid := range need {
			if !allowed[fid] {
				delete(need, fid)
			}
		}
		sl = slicer.Extract(ip, need)
	}
	return sl, need, modelMin, modelMax, nil
}

// sortedFIDs returns the set's members in ascending order.
func sortedFIDs(set map[int]bool) []int {
	fids := make([]int, 0, len(set))
	for fid := range set {
		fids = append(fids, fid)
	}
	sort.Ints(fids)
	return fids
}

// observedParamBounds derives per-parameter value intervals from the
// profiling inputs — the ranges the static cost bound is taken over.
// Globals are left unbounded (they drift across jobs).
func observedParamBounds(paramSets []map[string]int64) map[string]analysis.Interval {
	bounds := map[string]analysis.Interval{}
	for _, params := range paramSets {
		for name, v := range params {
			if iv, ok := bounds[name]; ok {
				bounds[name] = iv.Join(analysis.Point(v))
			} else {
				bounds[name] = analysis.Point(v)
			}
		}
	}
	return bounds
}

// measureSliceCost returns the slice's average execution time at
// maximum frequency over a sample of the workload's inputs.
func measureSliceCost(w *workload.Workload, sl *slicer.Slice, cfg Config) float64 {
	gen := w.NewGen(cfg.ProfileSeed + 5)
	globals := w.FreshGlobals()
	const samples = 25
	total := 0.0
	for i := 0; i < samples; i++ {
		wk, err := sl.Run(globals, gen.Next(i), nil)
		if err != nil {
			return math.Inf(1)
		}
		total += cfg.Plat.JobTimeAt(wk.CPU, wk.MemSec, cfg.Plat.MaxLevel())
	}
	return total / samples
}

// maskColumns zeroes the columns of features outside the allowed set
// (hint columns, appended after the schema columns, are always kept).
func maskColumns(X [][]float64, schema *features.Schema, allowed map[int]bool) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := append([]float64(nil), row...)
		for j := 0; j < schema.Dim(); j++ {
			if !allowed[schema.Columns[j].FID] {
				r[j] = 0
			}
		}
		out[i] = r
	}
	return out
}

// appendHintValues extends a control-flow feature vector with the
// programmer-provided hint parameters (§3.5).
func appendHintValues(x []float64, hints []workload.Hint, params map[string]int64) []float64 {
	for _, h := range hints {
		//dvfs:allow-alloc grows only past the caller-reserved vecStackDim capacity
		x = append(x, float64(params[h.Param]))
	}
	return x
}

// appendQuadValues extends a feature vector with the squares of the
// listed columns (§3.5's higher-order model option).
func appendQuadValues(x []float64, quadCols []int) []float64 {
	for _, j := range quadCols {
		//dvfs:allow-alloc grows only past the caller-reserved vecStackDim capacity
		x = append(x, x[j]*x[j])
	}
	return x
}

func noiseFactor(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	n := sigma * rng.NormFloat64()
	lim := 3 * sigma
	if n > lim {
		n = lim
	}
	if n < -lim {
		n = -lim
	}
	return math.Exp(n)
}

// Name implements governor.Governor.
func (*Controller) Name() string { return "prediction" }

// Prediction is the run-time model output for one job: the chosen
// level plus the intermediate quantities a caller (or a serving
// client) may want to inspect.
type Prediction struct {
	// Target is the selected DVFS level.
	Target platform.Level
	// TFminSec and TFmaxSec are the predicted job times at the
	// platform's minimum and maximum frequencies (clamped non-negative,
	// with the tfmin ≥ tfmax noise guard applied).
	TFminSec, TFmaxSec float64
	// EffBudgetSec is the effective budget after subtracting the
	// predictor's own cost (§3.4).
	EffBudgetSec float64
	// PredictorSec echoes the predictor cost charged against the
	// budget.
	PredictorSec float64
	// PredictedExecSec is the un-margined expected execution time at
	// Target (the Fig 19 analysis quantity).
	PredictedExecSec float64
	// FeatHash fingerprints the vectorized feature vector
	// (obs.FeatureHash), so equal-input decisions can be correlated
	// across runs and tiers without shipping the features.
	FeatHash uint64
}

// PredictTrace evaluates the trained models on an already-recorded
// feature trace and picks the level for a job with the given remaining
// budget, predictor cost, and current level. This is the run-time
// decision shared by Decide (which records the trace by running the
// prediction slice) and the dvfsd serving path (which receives the
// trace over the wire).
//
// PredictTrace only reads the controller's trained state (schema,
// models, selector), so it is safe for concurrent use from any number
// of goroutines.
//
//dvfs:hotpath
func (c *Controller) PredictTrace(tr *features.Trace, params map[string]int64, budgetSec, predictorSec float64, cur platform.Level) Prediction {
	return c.PredictTraceSpans(tr, params, budgetSec, predictorSec, cur, nil)
}

// vecStackDim is the feature-vector capacity the decision path
// reserves on the stack. Vectors at or under this dimension (schema
// columns + hint columns + quadratic columns — every seed workload is
// far below it) make a prediction with zero heap allocations, the
// budget guarantee of ROADMAP item 2; larger schemas fall back to one
// heap vector per call.
const vecStackDim = 256

// PredictTraceSpans is PredictTrace with per-phase span capture: the
// model evaluation and the level selection are timed on st (which may
// be nil — every SpanTimer method is nil-safe). dvfsd's predict path
// passes its served ledger; the simulator's Decide passes none, since
// a simulated decision's cost is simulated.
//
//dvfs:hotpath
func (c *Controller) PredictTraceSpans(tr *features.Trace, params map[string]int64, budgetSec, predictorSec float64, cur platform.Level, st *obs.SpanTimer) Prediction {
	st.Start(obs.PhasePredict)
	// The feature vector lives in a stack buffer: the whole decision —
	// vectorize, two model evaluations, level selection, feature hash —
	// performs zero heap allocations when the schema fits vecStackDim.
	var buf [vecStackDim]float64
	x := c.Schema.VectorizeInto(buf[:0], tr)
	x = appendHintValues(x, c.hints, params)
	x = appendQuadValues(x, c.quadCols)
	tfmin := math.Max(0, c.ModelMin.Predict(x))
	tfmax := math.Max(0, c.ModelMax.Predict(x))
	if tfmin < tfmax {
		tfmin = tfmax // noise guard: time at fmin can never be shorter
	}

	eff := budgetSec - predictorSec
	st.Next(obs.PhaseSelect)
	target := c.Selector.Pick(cur, tfmin, tfmax, eff)
	st.End()

	// Record the un-margined expectation at the chosen level for the
	// prediction-error analysis (Fig 19).
	tp := dvfs.Solve(tfmin, tfmax, c.Plat.MinLevel().EffFreqHz(), c.Plat.MaxLevel().EffFreqHz())
	return Prediction{
		Target:           target,
		TFminSec:         tfmin,
		TFmaxSec:         tfmax,
		EffBudgetSec:     eff,
		PredictorSec:     predictorSec,
		PredictedExecSec: tp.TimeAt(target.EffFreqHz()),
		FeatHash:         obs.FeatureHash(x),
	}
}

// JobStart implements governor.Governor: it is Decide without an
// event.
func (c *Controller) JobStart(job *governor.Job, cur platform.Level) governor.Decision {
	return c.Decide(job, cur, nil)
}

// Decide is the run-time decision: run the prediction slice, predict
// execution times at fmin/fmax, and pick the lowest frequency whose
// (margin-inflated) predicted time fits the effective budget. When e
// is non-nil, Decide also fills in e, the decision's event, with what
// only the controller sees: the feature hash, the raw tfmin/tfmax, the
// §3.4 budget ledger, the margin and the switch-table estimate. It
// times nothing on the host: the decision's cost is the simulated
// predictor time, which the job's outcome records when it completes
// the event (governor.Outcome.Complete).
//
// Decide is safe for concurrent use as long as callers do not mutate
// job.Globals or job.Params during the call: the slice runs in a
// frozen environment (globals are read, never written), the trace is
// per-call, and PredictTrace reads only immutable trained state.
func (c *Controller) Decide(job *governor.Job, cur platform.Level, e *obs.DecisionEvent) governor.Decision {
	tr := features.NewTrace()
	sw, err := c.Slice.Run(job.Globals, job.Params, tr)
	if err != nil {
		// A broken slice must never break the application: fall back
		// to maximum frequency (always deadline-safe). Its event is an
		// unpredicted decision.
		top := c.Plat.MaxLevel()
		if e != nil {
			*e = obs.DecisionEvent{}
			c.describe(e, job, cur, top)
		}
		return governor.Decision{Target: top, PredictedExecSec: math.NaN()}
	}
	predictorSec := c.Plat.JobTimeAt(sw.CPU, sw.MemSec, cur)

	p := c.PredictTrace(tr, job.Params, job.RemainingBudgetSec, predictorSec, cur)
	if e != nil {
		*e = obs.DecisionEvent{
			FeatHash:         p.FeatHash,
			Predicted:        true,
			TFminSec:         p.TFminSec,
			TFmaxSec:         p.TFmaxSec,
			PredictedExecSec: p.PredictedExecSec,
			Margin:           c.Selector.Margin,
			EffBudgetSec:     p.EffBudgetSec,
		}
		c.describe(e, job, cur, p.Target)
	}
	return governor.Decision{
		Target:           p.Target,
		PredictorSec:     p.PredictorSec,
		PredictedExecSec: p.PredictedExecSec,
	}
}

// describe fills in the fields every decision event of c carries: the
// job's identity and schedule, the chosen level, and the switch-time
// estimate — the selector's table entry for the cur→target transition,
// the quantity §3.4 subtracts from the budget; the measured transition
// arrives with the outcome.
func (c *Controller) describe(e *obs.DecisionEvent, job *governor.Job, cur, target platform.Level) {
	e.Workload = c.W.Name
	e.Governor = c.Name()
	e.Job = job.Index
	e.ReleaseSec = job.ReleaseSec
	e.DeadlineSec = job.DeadlineSec
	e.Level = target.Index
	e.FreqKHz = int64(target.FreqHz / 1e3)
	e.BudgetSec = job.RemainingBudgetSec
	if c.Selector.Switch != nil {
		e.SwitchSec = c.Selector.Switch.Lookup(cur.Index, target.Index)
	}
}

// SelectedFeatureNames lists the schema columns with non-zero
// coefficients in either model — what §4.2's cross-platform comparison
// inspects.
func (c *Controller) SelectedFeatureNames() []string {
	seen := map[int]bool{}
	var names []string
	for _, j := range append(c.ModelMin.Selected(), c.ModelMax.Selected()...) {
		if seen[j] {
			continue
		}
		seen[j] = true
		switch {
		case j < c.Schema.Dim():
			names = append(names, c.Schema.Columns[j].Name)
		case j < c.Schema.Dim()+len(c.hints):
			names = append(names, "hint:"+c.hints[j-c.Schema.Dim()].Name)
		default:
			names = append(names, c.Schema.Columns[c.quadCols[j-c.Schema.Dim()-len(c.hints)]].Name+"²")
		}
	}
	return names
}

// MemFraction estimates the workload's average memory-time share of
// job execution from the profiling data — the calibration input the
// PID baseline needs (its offline training). Controllers rebuilt from
// a saved model return the stored value.
func (c *Controller) MemFraction() float64 {
	if c.memFrac > 0 {
		return c.memFrac
	}
	fmin, fmax := c.Plat.MinLevel().EffFreqHz(), c.Plat.MaxLevel().EffFreqHz()
	num, den := 0.0, 0.0
	for i := range c.Prof.TimesMax {
		tp := dvfs.Solve(c.Prof.TimesMin[i], c.Prof.TimesMax[i], fmin, fmax)
		num += tp.TmemSec
		den += c.Prof.TimesMax[i]
	}
	if den == 0 {
		return 0
	}
	rho := num / den
	if rho < 0 {
		return 0
	}
	if rho > 1 {
		return 1
	}
	return rho
}
