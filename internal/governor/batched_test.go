package governor

import (
	"math"
	"testing"

	"repro/internal/platform"
)

// countingGov records JobStart/JobEnd invocations.
type countingGov struct {
	Base
	plat   *platform.Platform
	starts int
	ends   int
	level  int
}

func (g *countingGov) Name() string { return "counting" }

func (g *countingGov) JobStart(_ *Job, _ platform.Level) Decision {
	g.starts++
	g.level = (g.level + 1) % g.plat.NumLevels() // move every real decision
	return Decision{
		Target:           g.plat.Levels[g.level],
		PredictorSec:     0.001,
		PredictedExecSec: 0.010,
	}
}

func (g *countingGov) JobEnd(*Job, Outcome) { g.ends++ }

func TestBatchedDecidesEveryKth(t *testing.T) {
	p := plat()
	inner := &countingGov{plat: p}
	g := &Batched{Inner: inner, K: 4}
	var targets []int
	for i := 0; i < 12; i++ {
		d := g.JobStart(job(0.05), p.Levels[0])
		targets = append(targets, d.Target.Index)
		g.JobEnd(job(0.05), Outcome{ExecSec: 0.01})
	}
	if inner.starts != 3 {
		t.Errorf("inner decisions = %d, want 3 for 12 jobs at K=4", inner.starts)
	}
	if inner.ends != 12 {
		t.Errorf("inner JobEnd = %d, want 12 (feedback must flow every job)", inner.ends)
	}
	// Within a batch the target must not change.
	for i := 0; i < 12; i += 4 {
		for j := 1; j < 4; j++ {
			if targets[i+j] != targets[i] {
				t.Fatalf("job %d target %d differs from batch head %d", i+j, targets[i+j], targets[i])
			}
		}
	}
}

func TestBatchedReusedDecisionIsFree(t *testing.T) {
	p := plat()
	g := &Batched{Inner: &countingGov{plat: p}, K: 3}
	first := g.JobStart(job(0.05), p.Levels[0])
	if first.PredictorSec != 0.001 {
		t.Fatalf("first decision predictor = %g", first.PredictorSec)
	}
	second := g.JobStart(job(0.05), p.Levels[0])
	if second.PredictorSec != 0 {
		t.Errorf("reused decision has predictor cost %g", second.PredictorSec)
	}
	if !math.IsNaN(second.PredictedExecSec) {
		t.Errorf("reused decision claims a prediction %g", second.PredictedExecSec)
	}
}

func TestBatchedKOneIsTransparent(t *testing.T) {
	p := plat()
	inner := &countingGov{plat: p}
	g := &Batched{Inner: inner, K: 1}
	for i := 0; i < 5; i++ {
		g.JobStart(job(0.05), p.Levels[0])
	}
	if inner.starts != 5 {
		t.Errorf("K=1 decisions = %d, want 5", inner.starts)
	}
	if g.Name() != "counting-batched" {
		t.Errorf("name = %s", g.Name())
	}
}

func TestBatchedKZeroClamped(t *testing.T) {
	p := plat()
	inner := &countingGov{plat: p}
	g := &Batched{Inner: inner, K: 0}
	for i := 0; i < 3; i++ {
		g.JobStart(job(0.05), p.Levels[0])
	}
	if inner.starts != 3 {
		t.Errorf("K=0 should clamp to 1; decisions = %d", inner.starts)
	}
}

func TestBatchedForwardsSampling(t *testing.T) {
	p := plat()
	g := &Batched{Inner: &Interactive{Plat: p}, K: 2}
	if g.SampleInterval() != 0.080 {
		t.Errorf("sampling interval not forwarded")
	}
	if got := g.Sample(0.95, p.Levels[2]); got.Index != p.MaxLevel().Index {
		t.Errorf("Sample not forwarded")
	}
}
