package governor

import (
	"math"

	"repro/internal/platform"
)

// Batched amortizes prediction overhead across several jobs — the
// paper's closing suggestion for millisecond-scale budgets (§7): "the
// predictor may need to predict the DVFS level for several jobs at
// once in order to amortize these overheads". The wrapped controller
// decides on every K-th job; the K−1 jobs in between reuse the level,
// paying neither predictor time nor a DVFS switch.
type Batched struct {
	// Inner is the controller that makes the real decisions.
	Inner Governor
	// K is the batch size (≥1); 1 degenerates to Inner.
	K int

	counter int
	last    Decision
	have    bool
}

// Name implements Governor.
func (g *Batched) Name() string { return g.Inner.Name() + "-batched" }

// JobStart implements Governor.
func (g *Batched) JobStart(job *Job, cur platform.Level) Decision {
	k := g.K
	if k < 1 {
		k = 1
	}
	if !g.have || g.counter%k == 0 {
		g.last = g.Inner.JobStart(job, cur)
		g.have = true
		g.counter = 0
	} else {
		// Reuse the batch's level: no predictor run, no new target
		// computation. The expectation is stale, so it is not
		// reported.
		g.last = Decision{Target: g.last.Target, PredictedExecSec: math.NaN()}
	}
	g.counter++
	return g.last
}

// JobEnd implements Governor (forwarded so feedback controllers keep
// learning even when batched).
func (g *Batched) JobEnd(job *Job, out Outcome) { g.Inner.JobEnd(job, out) }

// SampleInterval implements Governor.
func (g *Batched) SampleInterval() float64 { return g.Inner.SampleInterval() }

// Sample implements Governor.
func (g *Batched) Sample(util float64, cur platform.Level) platform.Level {
	return g.Inner.Sample(util, cur)
}
