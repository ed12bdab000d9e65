package governor

import (
	"math"

	"repro/internal/platform"
)

// Coordinator addresses the contention problem the paper leaves as
// future work (§7: "Extending this work to multi-threaded or
// multi-core architectures will require a way to model and estimate
// the contention of multiple threads or workloads"). Per-task
// controllers that are mutually unaware stretch their jobs to their
// own deadlines and starve short-budget tasks released meanwhile.
//
// The coordinator implements a simple contention model: every task
// registers its period and keeps an exponentially weighted average of
// its job execution times; when a task picks a frequency, the wall
// time other tasks will demand inside its window (their releases ×
// their average demand, inflated by a safety factor) is reserved out
// of its budget, so the job finishes early enough to let them run.
type Coordinator struct {
	tasks []*coordTask
	// SafetyFactor inflates reserved demand; zero selects 1.25.
	SafetyFactor float64
}

type coordTask struct {
	period, offset float64
	ewmaExec       float64
	seeded         bool
}

// NewCoordinator creates an empty coordinator.
func NewCoordinator() *Coordinator { return &Coordinator{} }

// Wrap registers a periodic task and returns its coordinated governor.
func (c *Coordinator) Wrap(inner Governor, periodSec, offsetSec float64) Governor {
	t := &coordTask{period: periodSec, offset: offsetSec}
	c.tasks = append(c.tasks, t)
	return &coordinated{c: c, me: t, inner: inner}
}

// reserveFor estimates the wall time tasks other than `me` will demand
// within [start, deadline).
func (c *Coordinator) reserveFor(me *coordTask, start, deadline float64) float64 {
	sf := c.SafetyFactor
	if sf == 0 {
		sf = 1.25
	}
	total := 0.0
	for _, t := range c.tasks {
		if t == me || !t.seeded || t.period <= 0 {
			continue
		}
		// Releases of t in [start, deadline).
		first := math.Ceil((start - t.offset) / t.period)
		if first < 0 {
			first = 0
		}
		k := 0
		for j := first; t.offset+j*t.period < deadline; j++ {
			k++
		}
		total += float64(k) * t.ewmaExec * sf
	}
	return total
}

type coordinated struct {
	Base
	c     *Coordinator
	me    *coordTask
	inner Governor
}

// Name implements Governor.
func (g *coordinated) Name() string { return g.inner.Name() + "-coord" }

// JobStart implements Governor: tighten the budget by the reserved
// demand of the other tasks, then delegate. A floor of 25% of the
// remaining budget prevents an overloaded system from collapsing the
// budget to zero (the job would run at max and still be late — which
// is the best available outcome anyway).
func (g *coordinated) JobStart(job *Job, cur platform.Level) Decision {
	start := job.DeadlineSec - job.RemainingBudgetSec
	reserve := g.c.reserveFor(g.me, start, job.DeadlineSec)
	if reserve > 0 {
		tightened := *job
		floor := 0.25 * job.RemainingBudgetSec
		tightened.RemainingBudgetSec = math.Max(floor, job.RemainingBudgetSec-reserve)
		return g.inner.JobStart(&tightened, cur)
	}
	return g.inner.JobStart(job, cur)
}

// JobEnd implements Governor: fold the observation into the task's
// demand estimate and forward it.
func (g *coordinated) JobEnd(job *Job, out Outcome) {
	const alpha = 0.2
	if !g.me.seeded {
		g.me.ewmaExec = out.ExecSec
		g.me.seeded = true
	} else {
		g.me.ewmaExec = (1-alpha)*g.me.ewmaExec + alpha*out.ExecSec
	}
	g.inner.JobEnd(job, out)
}
