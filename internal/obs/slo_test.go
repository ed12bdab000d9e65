package obs

import (
	"math"
	"testing"
)

// sloTestConfig keeps windows tiny so tests drive full fill cycles.
func sloTestConfig() SLOConfig {
	return SLOConfig{Target: 0.01, FastWindow: 8, SlowWindow: 32}
}

// sloStatus is key's entry in the tracker's snapshot (zero when the
// key was never observed).
func sloStatus(s *SLOTracker, key string) SLOStatus {
	for _, st := range s.Snapshot() {
		if st.Workload == key {
			return st
		}
	}
	return SLOStatus{}
}

func TestSLOTrackerAlertsAndClears(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())

	// All hits: no alert, burn rates zero.
	for i := 0; i < 16; i++ {
		s.Observe("ldecode", false)
	}
	if sloStatus(s, "ldecode").Alerting {
		t.Fatal("alerting with zero misses")
	}
	fast, slow := s.BurnRates("ldecode")
	if fast != 0 || slow != 0 {
		t.Fatalf("burn rates = %g, %g, want 0, 0", fast, slow)
	}

	// A sustained miss burst: fast window saturates (rate 1.0 → burn
	// 100 ≥ 10) and the slow window reaches 16/32 → burn 50 ≥ 2, on the
	// 32nd job, which is also the sample gate.
	for i := 0; i < 16; i++ {
		s.Observe("ldecode", true)
	}
	st := sloStatus(s, "ldecode")
	if !st.Alerting || st.Misses != 16 || st.Jobs != 32 {
		t.Fatalf("status = %+v, want alerting after 16 misses in 32 jobs", st)
	}

	// Recovery: hysteresis clears only once both burns fall below half
	// their thresholds. Push hits until the fast window is clean and
	// the slow window dilutes below SLOSlowBurn/2 = 1 (rate < 0.01,
	// which for a 32-job window means zero misses remaining).
	for i := 0; i < 64 && sloStatus(s, "ldecode").Alerting; i++ {
		s.Observe("ldecode", false)
	}
	if sloStatus(s, "ldecode").Alerting {
		t.Fatal("alert never cleared after sustained recovery")
	}
}

func TestSLOTrackerMinSamplesGate(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())
	// Straight misses burn both windows far past threshold, but the
	// sample gate keeps the status quiet on a cold start.
	for i := 0; i < sloMinSamples-1; i++ {
		s.Observe("sha", true)
	}
	if sloStatus(s, "sha").Alerting {
		t.Fatal("alerted before sloMinSamples observations")
	}
	s.Observe("sha", true)
	if !sloStatus(s, "sha").Alerting {
		t.Fatal("no alert once sloMinSamples reached with saturated windows")
	}
}

func TestSLOTrackerSnapshot(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())
	for i := 0; i < sloMinSamples; i++ {
		s.Observe("b", i%2 == 0) // 50% misses: alerts
		s.Observe("a", false)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Workload != "a" || snap[1].Workload != "b" {
		t.Fatalf("snapshot not sorted by key: %+v", snap)
	}
	if snap[0].Alerting || !snap[1].Alerting {
		t.Fatalf("alert states wrong: %+v", snap)
	}
	if snap[1].MissRate != 0.5 {
		t.Fatalf("miss rate = %g, want 0.5", snap[1].MissRate)
	}
	if snap[0].FastBurn != 0 {
		t.Fatalf("healthy fast burn = %g, want 0", snap[0].FastBurn)
	}
	if snap[1].SlowBurn < SLOSlowBurn {
		t.Fatalf("burning slow burn = %g, want ≥ %g", snap[1].SlowBurn, SLOSlowBurn)
	}
	if fast, slow := s.BurnRates("b"); fast != snap[1].FastBurn || slow != snap[1].SlowBurn {
		t.Fatalf("BurnRates = %g, %g; snapshot has %g, %g", fast, slow, snap[1].FastBurn, snap[1].SlowBurn)
	}
}

func TestSLOTrackerUnknownWorkload(t *testing.T) {
	s := NewSLOTracker(SLOConfig{})
	if snap := s.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot of an unused tracker = %+v", snap)
	}
	fast, slow := s.BurnRates("nope")
	if !math.IsNaN(fast) || !math.IsNaN(slow) {
		t.Fatalf("burn rates = %g, %g, want NaN", fast, slow)
	}
	if got := s.Target(); got != 0.01 {
		t.Fatalf("default target = %g, want 0.01", got)
	}
}

func TestTracerFeedsSLO(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())
	tr := NewTracer(TracerOptions{SLO: s})
	for i := 0; i < 10; i++ {
		tr.Emit(DecisionEvent{Workload: "ldecode", Job: i, Done: true, ActualExecSec: 0.01, Missed: i%2 == 0})
	}
	// A one-shot (not Done) event must not count.
	tr.Emit(DecisionEvent{Workload: "ldecode", Job: 99})
	if st := sloStatus(s, "ldecode"); st.Jobs != 10 || st.Misses != 5 {
		t.Fatalf("status = %+v, want 10 jobs / 5 misses", st)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
