package obs

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWriteSSEGolden pins the wire framing: id carries the sequence
// number, the event name is "decision", and the payload is the same
// JSON the JSONL sinks write.
func TestWriteSSEGolden(t *testing.T) {
	var b strings.Builder
	e := DecisionEvent{Seq: 7, Workload: "sha", Job: 3, Level: 2,
		Spans: []Span{{Name: PhaseServe, StartSec: 0, DurSec: 0.001}}}
	if err := WriteSSE(&b, &e); err != nil {
		t.Fatal(err)
	}
	want := "id: 7\nevent: decision\ndata: " +
		`{"seq":7,"workload":"sha","job":3,"time_sec":0,"predicted":false,"level":2,` +
		`"done":false,"spans":[{"name":"serve","start_sec":0,"dur_sec":0.001}]}` + "\n\n"
	if b.String() != want {
		t.Errorf("SSE framing mismatch:\n--- got ---\n%q\n--- want ---\n%q", b.String(), want)
	}
}

func TestSSERoundTrip(t *testing.T) {
	var b strings.Builder
	events := []DecisionEvent{
		{Seq: 0, Workload: "ldecode", Job: 0, Done: true, ActualExecSec: 0.01,
			Spans: []Span{{Name: PhaseServe, DurSec: 0.001}, {Name: PhasePredict, Depth: 1, DurSec: 0.0004}}},
		{Seq: 1, Workload: "sha", Job: 1, Missed: true},
	}
	for i := range events {
		if err := WriteSSE(&b, &events[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Keepalive comments and retry hints must be ignored by the reader.
	stream := ": keepalive\n\nretry: 1000\n\n" + b.String()
	var got []DecisionEvent
	if err := ReadSSE(strings.NewReader(stream), func(e DecisionEvent) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
	if got[0].Workload != "ldecode" || len(got[0].Spans) != 2 || got[0].Spans[1].Depth != 1 {
		t.Errorf("event 0 = %+v", got[0])
	}
	if got[1].Seq != 1 || !got[1].Missed {
		t.Errorf("event 1 = %+v", got[1])
	}
}

func TestReadSSEStopFollow(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		WriteSSE(&b, &DecisionEvent{Seq: uint64(i)})
	}
	n := 0
	err := ReadSSE(strings.NewReader(b.String()), func(e DecisionEvent) error {
		n++
		if n == 2 {
			return ErrStopFollow
		}
		return nil
	})
	if err != nil || n != 2 {
		t.Errorf("stop-follow: err=%v n=%d", err, n)
	}
	// A non-sentinel error propagates.
	boom := errors.New("boom")
	err = ReadSSE(strings.NewReader(b.String()), func(DecisionEvent) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("callback error not propagated: %v", err)
	}
	// Malformed payloads fail loudly.
	err = ReadSSE(strings.NewReader("data: not json\n\n"), func(DecisionEvent) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "parsing stream event") {
		t.Errorf("malformed payload: err=%v", err)
	}
}

// TestFollow exercises the HTTP client end: filter parameters reach the
// server as query parameters, Max stops cleanly, and a non-200 response
// is an error.
func TestFollow(t *testing.T) {
	var gotQuery string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotQuery = r.URL.RawQuery
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < 10; i++ {
			WriteSSE(w, &DecisionEvent{Seq: uint64(i), Workload: "sha"})
		}
	}))
	defer srv.Close()

	var seqs []uint64
	err := Follow(context.Background(), srv.URL+"/v1/events",
		FollowOptions{Filter: EventFilter{Workload: "sha", Last: 5}, Max: 3},
		func(e DecisionEvent) error {
			seqs = append(seqs, e.Seq)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[2] != 2 {
		t.Errorf("seqs = %v, want first 3", seqs)
	}
	if !strings.Contains(gotQuery, "workload=sha") || !strings.Contains(gotQuery, "last=5") {
		t.Errorf("filter query not sent: %q", gotQuery)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no stream here", http.StatusNotFound)
	}))
	defer bad.Close()
	err = Follow(context.Background(), bad.URL, FollowOptions{}, func(DecisionEvent) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Errorf("non-200 not surfaced: %v", err)
	}
}

// TestFollowCancel checks context cancellation mid-stream is a clean
// stop, not an error.
func TestFollowCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		WriteSSE(w, &DecisionEvent{Seq: 0})
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	err := Follow(ctx, srv.URL, FollowOptions{}, func(e DecisionEvent) error {
		cancel() // first event arrives, then tear the stream down
		return nil
	})
	if err != nil {
		t.Errorf("cancelled follow returned %v", err)
	}
}

// TestFollowReconnectResumes drops the stream after every few events
// and checks the follower re-dials with Last-Event-ID, the server-side
// resume replays only newer events, and the callback sees each
// sequence exactly once.
func TestFollowReconnectResumes(t *testing.T) {
	const total = 9
	var mu sync.Mutex
	var resumeIDs []string
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns++
		id := r.Header.Get("Last-Event-ID")
		resumeIDs = append(resumeIDs, id)
		mu.Unlock()
		after := uint64(0)
		if id != "" {
			after, _ = strconv.ParseUint(id, 10, 64)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		sent := 0
		for seq := after + 1; seq <= total; seq++ {
			// Overlap one event below the resume point to prove the
			// client-side dedupe as well.
			if seq == after+1 && after > 1 {
				WriteSSE(w, &DecisionEvent{Seq: after, Workload: "sha"})
			}
			WriteSSE(w, &DecisionEvent{Seq: seq, Workload: "sha"})
			sent++
			if sent == 3 {
				return // drop the connection mid-stream
			}
		}
	}))
	defer srv.Close()

	var seqs []uint64
	err := Follow(context.Background(), srv.URL, FollowOptions{
		Reconnect:   true,
		Max:         total,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}, func(e DecisionEvent) error {
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != total {
		t.Fatalf("seqs = %v, want 1..%d exactly once", seqs, total)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v: dropped or doubled at %d", seqs, i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 3 {
		t.Fatalf("connections = %d, want 3", conns)
	}
	if resumeIDs[0] != "" || resumeIDs[1] != "3" || resumeIDs[2] != "6" {
		t.Fatalf("Last-Event-ID per connection = %q", resumeIDs)
	}
}

// TestFollowReconnectGivesUp checks the retry budget: consecutive
// failed dials surface the last error after MaxRetries attempts.
func TestFollowReconnectGivesUp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	retries := 0
	err := Follow(context.Background(), srv.URL, FollowOptions{
		Reconnect:   true,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		OnRetry:     func(int, uint64, error, time.Duration) { retries++ },
	}, func(DecisionEvent) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("exhausted retries returned %v", err)
	}
	if retries != 2 {
		t.Fatalf("OnRetry ran %d times, want 2", retries)
	}
}

// TestFollowNoReconnectByDefault pins the single-shot default: a
// dropped stream returns instead of re-dialing.
func TestFollowNoReconnectByDefault(t *testing.T) {
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		w.Header().Set("Content-Type", "text/event-stream")
		WriteSSE(w, &DecisionEvent{Seq: 1})
	}))
	defer srv.Close()
	got := 0
	if err := Follow(context.Background(), srv.URL, FollowOptions{},
		func(DecisionEvent) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if conns != 1 || got != 1 {
		t.Fatalf("conns=%d events=%d, want 1/1", conns, got)
	}
}
