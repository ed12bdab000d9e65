package replay

import (
	"math"

	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/stats"
)

// timeEps absorbs floating-point residue in the deadline check.
const timeEps = 1e-12

// policy decides a counterfactual level for each traced job. decide
// returns the target level and the predictor overhead the policy pays
// before the job (zero for reactive baselines). onEnd, when non-nil,
// feeds the executed time back (the PID's control loop). free marks
// the paper's overhead-removed oracle analysis: level changes cost
// neither time nor energy and no predictor runs.
type policy struct {
	name   string
	free   bool
	decide func(j *job, cur platform.Level, now float64) (platform.Level, float64)
	onEnd  func(j *job, at platform.Level, execSec float64)
}

// runPolicy walks the group's jobs through the counterfactual
// timeline under one policy, mirroring the simulator's loop: idle to
// the release, pay the predictor at the pre-switch level, pay the
// transition, execute at the target, and finally drain to the
// horizon. Execution times come from each job's cross-level
// translation, switch latencies from the platform's jitter model: the
// run's k-th switch is priced at the k-th deviate of tb.jitter, so
// every run of a replay sees the same latency sequence.
func runPolicy(g *group, p policy, plat *platform.Platform, tb tables) Outcome {
	var out Outcome
	levels := map[int]int{}
	switches := 0

	var tl platform.Timeline
	cur := plat.MaxLevel()
	for _, j := range g.jobs {
		obsLevel, err := plat.Level(j.level)
		if err != nil {
			obsLevel = plat.MaxLevel()
		}
		tl.IdleUntil(tb.power, j.release, cur.Index)
		target, predSec := p.decide(j, cur, tl.Now)
		var lat float64
		if target.Index != cur.Index && !p.free {
			lat = plat.SwitchLatencyAt(cur, target, tb.jitter[switches])
			switches++
		}
		exec := j.timeAt(target, obsLevel, g.rho)
		tl.Job(tb.power, cur.Index, target.Index, predSec, lat, exec)
		cur = target
		levels[cur.Index]++
		if tl.Now > j.deadline+timeEps {
			out.Misses++
		}
		if p.onEnd != nil {
			p.onEnd(j, cur, exec)
		}
	}
	if n := len(g.jobs); n > 0 {
		tl.Drain(tb.power, g.jobs[n-1].release+g.period, cur.Index)
	}

	out.Breakdown = tl.Breakdown
	out.EnergyJ = tl.Total()
	out.DurationSec = tl.Now
	if len(g.jobs) > 0 {
		out.MissRate = float64(out.Misses) / float64(len(g.jobs))
	}
	out.Levels = levelOccupancy(levels, len(g.jobs))
	return out
}

// translatePredictor prices the logged predictor slice time (measured
// at the traced from-level) at the counterfactual current level, via
// the same ρ translation used for job times.
func translatePredictor(j *job, cur platform.Level, plat *platform.Platform, rho float64) float64 {
	if j.predictorSec <= 0 {
		return 0
	}
	from, err := plat.Level(j.from)
	if err != nil {
		return j.predictorSec
	}
	return j.predictorSec * (rho + (1-rho)*from.EffFreqHz()/cur.EffFreqHz())
}

// predictionPolicy re-runs the paper's selection rule from the logged
// raw (tfmin, tfmax) predictions: effective budget = remaining budget
// − predictor cost, margin-inflated model, lowest feasible level with
// per-level switch-cost subtraction (§3.4). shift is the α-sweep's
// prediction offset; margin overrides the traced margin when ≥ 0.
func predictionPolicy(name string, g *group, plat *platform.Platform, table *platform.SwitchTable, margin float64, shift float64) policy {
	return policy{
		name: name,
		decide: func(j *job, cur platform.Level, now float64) (platform.Level, float64) {
			if !j.predicted {
				// The controller's own fallback: a job it cannot
				// predict runs at maximum frequency.
				return plat.MaxLevel(), 0
			}
			m := margin
			if m < 0 {
				m = j.margin
			}
			predSec := translatePredictor(j, cur, plat, g.rho)
			sel := &dvfs.Selector{Plat: plat, Switch: table, Margin: m}
			eff := (j.deadline - now) - predSec
			tfmin := math.Max(j.tfmin+shift, 0)
			tfmax := math.Max(j.tfmax+shift, 0)
			return sel.Pick(cur, tfmin, tfmax, eff), predSec
		},
	}
}

// pidPolicy wraps the repository's PID baseline around the trace: it
// sees exactly what a deployed PID would have seen — each job's
// release, deadline, and (after the fact) executed time — and nothing
// the predictor knew.
func pidPolicy(g *group, plat *platform.Platform, table *platform.SwitchTable) policy {
	pid := &governor.PID{Plat: plat, Switch: table, MemFraction: g.rho}
	return policy{
		name: "pid",
		decide: func(j *job, cur platform.Level, now float64) (platform.Level, float64) {
			dec := pid.JobStart(&governor.Job{
				Index:              j.idx,
				ReleaseSec:         j.release,
				DeadlineSec:        j.deadline,
				RemainingBudgetSec: j.deadline - now,
			}, cur)
			return dec.Target, 0
		},
		onEnd: func(j *job, at platform.Level, execSec float64) {
			pid.JobEnd(nil, governor.Outcome{ExecSec: execSec})
		},
	}
}

// oraclePolicy picks the minimum level that meets the deadline given
// the job's (translated) observed time, with overheads removed — the
// paper's energy-savings upper bound (Fig 18's oracle).
func oraclePolicy(g *group, plat *platform.Platform) policy {
	return policy{
		name: "oracle",
		free: true,
		decide: func(j *job, cur platform.Level, now float64) (platform.Level, float64) {
			obsLevel, err := plat.Level(j.level)
			if err != nil {
				obsLevel = plat.MaxLevel()
			}
			budget := j.deadline - now
			for _, l := range plat.Levels {
				if j.timeAt(l, obsLevel, g.rho) <= budget {
					return l, 0
				}
			}
			return plat.MaxLevel(), 0
		},
	}
}

// analyzeGroup reconstructs the trace and runs every counterfactual on
// the platform's tables.
func analyzeGroup(g *group, opts Options, tb tables) GroupResult {
	plat, table := opts.Plat, tb.sw

	gr := GroupResult{
		Workload:  g.workload,
		Governor:  g.governor,
		Jobs:      len(g.jobs),
		PeriodSec: g.period,
		BudgetSec: g.budget,
		Rho:       g.rho,
		Approx:    g.approx,
		Traced:    reconstruct(g, tb.power),
	}
	for _, j := range g.jobs {
		if j.predicted {
			gr.Predicted++
		}
	}
	policies := []policy{
		{name: "performance", decide: func(_ *job, _ platform.Level, _ float64) (platform.Level, float64) {
			return plat.MaxLevel(), 0
		}},
		{name: "powersave", decide: func(_ *job, _ platform.Level, _ float64) (platform.Level, float64) {
			return plat.MinLevel(), 0
		}},
		oraclePolicy(g, plat),
		pidPolicy(g, plat, table),
	}
	if gr.Predicted > 0 {
		policies = append(policies, predictionPolicy("prediction", g, plat, table, -1, 0))
	}

	outs := make([]Outcome, len(policies))
	var perf float64
	for i, p := range policies {
		outs[i] = runPolicy(g, p, plat, tb)
		if p.name == "performance" {
			perf = outs[i].EnergyJ
		}
	}
	for i, p := range policies {
		pr := PolicyResult{Name: p.name, Outcome: outs[i]}
		if perf > 0 {
			pr.NormEnergyPct = 100 * outs[i].EnergyJ / perf
		}
		if gr.Traced.EnergyJ > 0 {
			pr.DeltaEnergyPct = 100 * (outs[i].EnergyJ - gr.Traced.EnergyJ) / gr.Traced.EnergyJ
		}
		pr.DeltaMissRate = outs[i].MissRate - gr.Traced.MissRate
		gr.Policies = append(gr.Policies, pr)
	}

	if gr.Predicted > 0 {
		for _, m := range opts.Margins {
			o := runPolicy(g, predictionPolicy("margin", g, plat, table, m, 0), plat, tb)
			gr.MarginSweep = append(gr.MarginSweep, sweepPoint(m, o, perf))
		}
		var residuals []float64
		for _, j := range g.jobs {
			if j.predicted {
				residuals = append(residuals, j.residual)
			}
		}
		base := stats.Quantile(residuals, opts.TracedAlpha/(1+opts.TracedAlpha))
		for _, a := range opts.Alphas {
			shift := 0.0
			if !math.IsNaN(base) {
				shift = stats.Quantile(residuals, a/(1+a)) - base
			}
			o := runPolicy(g, predictionPolicy("alpha", g, plat, table, -1, shift), plat, tb)
			gr.AlphaSweep = append(gr.AlphaSweep, sweepPoint(a, o, perf))
		}
	}
	return gr
}

func sweepPoint(param float64, o Outcome, perfJ float64) SweepPoint {
	sp := SweepPoint{Param: param, EnergyJ: o.EnergyJ, Misses: o.Misses, MissRate: o.MissRate}
	if perfJ > 0 {
		sp.NormEnergyPct = 100 * o.EnergyJ / perfJ
	}
	return sp
}
