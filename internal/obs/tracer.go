package obs

import "sync/atomic"

// TracerOptions configures NewTracer. The zero value is usable: a
// 4096-event ring, no sinks, no drift monitoring.
type TracerOptions struct {
	// RingSize bounds the in-memory event ring; zero → 4096.
	RingSize int
	// Sinks receive every emitted event in addition to the ring.
	Sinks []Sink
	// Drift, when non-nil, observes every completed prediction's
	// residual.
	Drift *DriftMonitor
	// SLO, when non-nil, observes every completed job's deadline
	// outcome for burn-rate tracking.
	SLO *SLOTracker
}

// Tracer is the decision-tracing front end: it assigns sequence
// numbers, retains recent events in a lock-free ring (served by dvfsd's
// GET /debug/decisions), fans events out to sinks, and feeds the drift
// monitor. Emit is safe for concurrent use.
type Tracer struct {
	ring    *Ring
	sinks   []Sink
	drift   *DriftMonitor
	slo     *SLOTracker
	emitted atomic.Uint64
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	return &Tracer{
		ring:  NewRing(opts.RingSize),
		sinks: opts.Sinks,
		drift: opts.Drift,
		slo:   opts.SLO,
	}
}

// Emit publishes a live decision as it stands: a dvfsd predict
// request's one-shot event, whose outcome will never be reported (the
// job runs on the client). A simulated decision's event never passes
// through a tracer: trace.Simulate builds the run's decision log from
// its records.
func (t *Tracer) Emit(e DecisionEvent) { t.publish(&e) }

// publish fans one event out to the ring, the sinks, and the
// monitors. It runs inline with the controller's decision, so it must
// never wait on a consumer.
//
//dvfs:noblock
func (t *Tracer) publish(e *DecisionEvent) {
	e.Seq = t.ring.Put(*e)
	t.emitted.Add(1)
	for _, s := range t.sinks {
		//dvfs:allow-block Sink contract: Emit implementations shed load instead of waiting (Broadcaster is checked directly; file sinks are opt-in offline tooling)
		s.Emit(e)
	}
	if t.drift != nil && e.Done && e.Predicted {
		//dvfs:allow-block drift window update under a short private mutex; no I/O or channel ops inside
		t.drift.Observe(e.Workload, e.ResidualSec)
	}
	if t.slo != nil && e.Done {
		//dvfs:allow-block burn-rate window update under a short private mutex; no I/O or channel ops inside
		t.slo.Observe(e.Workload, e.Missed)
	}
}

// Snapshot returns up to n recent events, oldest first (n ≤ 0 means
// the whole ring).
func (t *Tracer) Snapshot(n int) []DecisionEvent { return t.ring.Snapshot(n) }

// Emitted returns the total number of events published.
func (t *Tracer) Emitted() uint64 { return t.emitted.Load() }

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 { return t.ring.Dropped() }

// Close closes every sink and returns the first error.
func (t *Tracer) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
