package alert

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWebhookRetries is the acceptance check: a flapping receiver gets
// the notification anyway, via retries with backoff.
func TestWebhookRetries(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		var tr Transition
		if err := json.NewDecoder(r.Body).Decode(&tr); err != nil || tr.Rule != "r" {
			t.Errorf("bad webhook body: %v %+v", err, tr)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	n := NewWebhookNotifier(srv.URL, WebhookOptions{
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	n.Notify(Transition{Rule: "r", To: StateFiring, Value: 3})
	waitFor(t, "delivery", func() bool { sent, _, _ := n.Stats(); return sent == 1 })
	if got := requests.Load(); got != 3 {
		t.Fatalf("requests = %d, want 3 (two failures then success)", got)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWebhookAbandonsAfterMaxAttempts(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	n := NewWebhookNotifier(srv.URL, WebhookOptions{
		MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	n.Notify(Transition{Rule: "r", To: StateFiring})
	waitFor(t, "abandonment", func() bool { _, failed, _ := n.Stats(); return failed == 1 })
	if got := requests.Load(); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
	n.Close()
}

func TestWebhookDropsWhenQueueFull(t *testing.T) {
	blocked := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer srv.Close()
	n := NewWebhookNotifier(srv.URL, WebhookOptions{QueueSize: 1, MaxAttempts: 1})
	// First occupies the worker, second fills the queue, third drops.
	for i := 0; i < 3; i++ {
		n.Notify(Transition{Rule: "r"})
	}
	waitFor(t, "drop", func() bool { _, _, dropped := n.Stats(); return dropped >= 1 })
	close(blocked)
	n.Close()
}
