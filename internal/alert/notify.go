package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Notifier receives firing and resolved transitions. Notify must not
// block the evaluation tick: implementations hand off to their own
// worker (webhook). The engine itself logs every such transition.
type Notifier interface {
	Notify(t Transition)
	Close() error
}

// WebhookOptions tune the webhook notifier; zero values select
// production defaults.
type WebhookOptions struct {
	// QueueSize bounds buffered notifications; excess is dropped and
	// counted, never blocking the evaluation tick. Zero → 256.
	QueueSize int
	// MaxAttempts bounds delivery tries per notification (first try
	// included). Zero → 5.
	MaxAttempts int
	// BackoffBase is the first retry delay, doubled per attempt with
	// jitter. Zero → 250ms.
	BackoffBase time.Duration
	// BackoffMax caps the retry delay. Zero → 5s.
	BackoffMax time.Duration
	// Log receives delivery failures; nil discards them.
	Log *slog.Logger
}

// WebhookNotifier POSTs each transition as JSON to a URL from its own
// worker goroutine, retrying failed deliveries with jittered
// exponential backoff so a flapping receiver does not lose the alert.
type WebhookNotifier struct {
	url     string
	client  *http.Client
	opts    WebhookOptions
	ch      chan Transition
	done    chan struct{}
	dropped atomic.Uint64
	failed  atomic.Uint64
	sent    atomic.Uint64
	closeMu sync.Mutex
	closed  bool
}

// NewWebhookNotifier starts the delivery worker.
func NewWebhookNotifier(url string, opts WebhookOptions) *WebhookNotifier {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 256
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 250 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n := &WebhookNotifier{
		url:    url,
		client: &http.Client{Timeout: 5 * time.Second},
		opts:   opts,
		ch:     make(chan Transition, opts.QueueSize),
		done:   make(chan struct{}),
	}
	go n.run()
	return n
}

// Notify implements Notifier: enqueue or drop, never block.
func (n *WebhookNotifier) Notify(t Transition) {
	select {
	case n.ch <- t:
	default:
		n.dropped.Add(1)
	}
}

func (n *WebhookNotifier) run() {
	defer close(n.done)
	for t := range n.ch {
		n.deliver(t)
	}
}

// deliver POSTs one transition, retrying with backoff.
func (n *WebhookNotifier) deliver(t Transition) {
	body, err := json.Marshal(t)
	if err != nil {
		return
	}
	delay := n.opts.BackoffBase
	for attempt := 1; ; attempt++ {
		err := n.post(body)
		if err == nil {
			n.sent.Add(1)
			return
		}
		if attempt >= n.opts.MaxAttempts {
			n.failed.Add(1)
			n.opts.Log.Warn("alert: webhook delivery abandoned",
				"url", n.url, "rule", t.Rule, "attempts", attempt, "err", err)
			return
		}
		n.opts.Log.Info("alert: webhook delivery retrying",
			"url", n.url, "rule", t.Rule, "attempt", attempt, "err", err)
		// Full jitter on the exponential: sleep in [delay/2, delay].
		time.Sleep(delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1)))
		delay *= 2
		if delay > n.opts.BackoffMax {
			delay = n.opts.BackoffMax
		}
	}
}

func (n *WebhookNotifier) post(body []byte) error {
	resp, err := n.client.Post(n.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// Stats reports deliveries, abandoned notifications, and queue drops.
func (n *WebhookNotifier) Stats() (sent, failed, dropped uint64) {
	return n.sent.Load(), n.failed.Load(), n.dropped.Load()
}

// Close drains the queue and stops the worker.
func (n *WebhookNotifier) Close() error {
	n.closeMu.Lock()
	if !n.closed {
		n.closed = true
		close(n.ch)
	}
	n.closeMu.Unlock()
	<-n.done
	return nil
}
