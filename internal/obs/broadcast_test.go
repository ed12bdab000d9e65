package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBroadcasterFanOutAndFilter(t *testing.T) {
	b := NewBroadcaster(BroadcasterOptions{QueueSize: 8})
	all := b.Subscribe(EventFilter{})
	sha := b.Subscribe(EventFilter{Workload: "sha"})
	if got := b.Subscribers(); got != 2 {
		t.Fatalf("subscribers = %d", got)
	}
	b.Emit(&DecisionEvent{Seq: 0, Workload: "ldecode"})
	b.Emit(&DecisionEvent{Seq: 1, Workload: "sha"})
	if e := <-all.C; e.Seq != 0 {
		t.Errorf("all saw seq %d first", e.Seq)
	}
	if e := <-all.C; e.Seq != 1 {
		t.Errorf("all saw seq %d second", e.Seq)
	}
	if e := <-sha.C; e.Seq != 1 || e.Workload != "sha" {
		t.Errorf("filtered subscription saw %+v", e)
	}
	sha.Cancel()
	sha.Cancel() // idempotent
	if _, ok := <-sha.C; ok {
		t.Error("cancelled subscription channel not closed")
	}
	if got := b.Subscribers(); got != 1 {
		t.Errorf("subscribers after cancel = %d", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-all.C; ok {
		t.Error("subscription channel not closed on broadcaster Close")
	}
	// Subscribing after Close yields an already-closed feed.
	late := b.Subscribe(EventFilter{})
	if _, ok := <-late.C; ok {
		t.Error("post-Close subscription not closed")
	}
}

// TestBroadcasterSlowSubscriber exercises the backpressure satellite: a
// subscriber that never reads fills its bounded queue; further events
// are dropped and counted — on the subscription, the broadcaster, and
// the registered metrics counter — and Emit never blocks.
func TestBroadcasterSlowSubscriber(t *testing.T) {
	reg := NewRegistry()
	dropped := reg.Counter("obs_stream_dropped_total", "test")
	b := NewBroadcaster(BroadcasterOptions{QueueSize: 4, Dropped: dropped})
	slow := b.Subscribe(EventFilter{})
	// A subscriber whose filter matches nothing: unaffected by the storm,
	// and proof that drops are attributed per subscriber.
	other := b.Subscribe(EventFilter{Workload: "other"})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Emit(&DecisionEvent{Seq: uint64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a slow subscriber")
	}

	// 4 queued, 96 dropped for the slow subscriber only.
	if got := slow.Dropped(); got != 96 {
		t.Errorf("subscription dropped = %d, want 96", got)
	}
	if got := b.Dropped(); got != 96 {
		t.Errorf("broadcaster dropped = %d, want 96", got)
	}
	if got := dropped.Value(); got != 96 {
		t.Errorf("obs_stream_dropped_total = %g, want 96", got)
	}
	if got := other.Dropped(); got != 0 {
		t.Errorf("non-matching subscription dropped = %d, want 0", got)
	}
	// The queued prefix is intact and in order.
	for i := 0; i < 4; i++ {
		if e := <-slow.C; e.Seq != uint64(i) {
			t.Errorf("queued event %d has seq %d", i, e.Seq)
		}
	}
	b.Close()
}

// TestBroadcasterSubscribeCancelRace hammers subscribe/cancel/emit
// concurrently; run under -race this is the satellite's race check, and
// in any mode it verifies no Emit sends on a closed channel (which
// would panic).
func TestBroadcasterSubscribeCancelRace(t *testing.T) {
	b := NewBroadcaster(BroadcasterOptions{QueueSize: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := b.Subscribe(EventFilter{})
				// Drain a little, then cancel while emitters are active.
				select {
				case <-s.C:
				default:
				}
				s.Cancel()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.Emit(&DecisionEvent{Seq: uint64(i)})
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	b.Close()
	// Close after the storm: subscribing now yields a closed feed.
	if _, ok := <-b.Subscribe(EventFilter{}).C; ok {
		t.Error("post-Close subscription not closed")
	}
}

// TestTracerWithBroadcasterSink wires a broadcaster in as a tracer sink
// the way dvfsd does and checks events flow through end to end.
func TestTracerWithBroadcasterSink(t *testing.T) {
	b := NewBroadcaster(BroadcasterOptions{QueueSize: 8})
	tr := NewTracer(TracerOptions{RingSize: 8, Sinks: []Sink{b}})
	sub := b.Subscribe(EventFilter{})
	tr.Emit(DecisionEvent{Workload: "sha", Job: 3, Done: true, ActualExecSec: 0.01})
	select {
	case e := <-sub.C:
		if e.Workload != "sha" || e.Job != 3 || !e.Done {
			t.Errorf("streamed event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("no event reached the subscriber")
	}
	tr.Close()
	if _, ok := <-sub.C; ok {
		t.Error("tracer Close did not close the stream")
	}
}
