package obs

import "testing"

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

// TestSLOTrackerAlertsAndClears drives one key through a miss burst
// and its recovery: the slow burn crosses SLOSlowBurn, where the alert
// engine's slo_burn rule fires, and sliding hits back in brings both
// burns under SLOSlowBurn/2, the rule's clear level.
func TestSLOTrackerAlertsAndClears(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())

	// All hits: burn rates zero.
	for i := 0; i < 16; i++ {
		s.Observe("ldecode", false)
	}
	if st := sloStatus(s, "ldecode"); st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("burn rates = %g, %g, want 0, 0", st.FastBurn, st.SlowBurn)
	}

	// A sustained miss burst: the fast window saturates (rate 1.0 →
	// burn 100) and the slow window reaches 16/32 → burn 50.
	for i := 0; i < 16; i++ {
		s.Observe("ldecode", true)
	}
	st := sloStatus(s, "ldecode")
	if st.Misses != 16 || st.Jobs != 32 || st.FastBurn != 100 || st.SlowBurn != 50 {
		t.Fatalf("status = %+v, want 16 misses in 32 jobs, burns 100 and 50", st)
	}

	// Recovery: 32 hits slide every miss out of both windows.
	for i := 0; i < 32; i++ {
		s.Observe("ldecode", false)
	}
	st = sloStatus(s, "ldecode")
	if st.FastBurn >= SLOSlowBurn/2 || st.SlowBurn >= SLOSlowBurn/2 || st.Misses != 16 || st.Jobs != 64 {
		t.Fatalf("status = %+v, want both burns below %g after recovery, lifetime counts kept", st, SLOSlowBurn/2)
	}
}

func TestSLOTrackerSnapshot(t *testing.T) {
	s := NewSLOTracker(sloTestConfig())
	for i := 0; i < 32; i++ {
		s.Observe("b", i%2 == 0) // 50% misses
		s.Observe("a", false)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Workload != "a" || snap[1].Workload != "b" {
		t.Fatalf("snapshot not sorted by key: %+v", snap)
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
}

func TestSLOTrackerUnknownWorkload(t *testing.T) {
	s := NewSLOTracker(SLOConfig{})
	if snap := s.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot of an unused tracker = %+v", snap)
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
