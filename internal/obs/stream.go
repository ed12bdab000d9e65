package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The live event stream speaks Server-Sent Events (SSE): one
// `event: decision` block per DecisionEvent, `id:` carrying the
// sequence number, `data:` the same JSON object the JSONL sinks write.
// SSE needs nothing beyond HTTP/1.1 — curl tails it, EventSource
// consumes it in a browser, and dvfstrace -follow decodes it with the
// reader below.

// WriteSSE writes one event in decision-stream SSE framing.
func WriteSSE(w io.Writer, e *DecisionEvent) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: decision\ndata: %s\n\n", e.Seq, data)
	return err
}

// ErrStopFollow, returned by a ReadSSE/Follow callback, stops the
// stream without error.
var ErrStopFollow = errors.New("obs: stop following stream")

// ReadSSE decodes a decision SSE stream, invoking fn for every event
// until the stream ends, fn returns an error, or a data payload fails
// to parse. ErrStopFollow from fn is a clean stop (nil is returned).
// Comment lines (keepalives) and unknown fields are ignored.
func ReadSSE(r io.Reader, fn func(DecisionEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var data []byte
	flush := func() error {
		if len(data) == 0 {
			return nil
		}
		var e DecisionEvent
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("obs: parsing stream event: %w", err)
		}
		data = nil
		return fn(e)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				if errors.Is(err, ErrStopFollow) {
					return nil
				}
				return err
			}
		case strings.HasPrefix(line, "data:"):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default:
			// id:, event:, retry:, and ": comment" keepalives carry no
			// payload the decoder needs.
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil && !errors.Is(err, ErrStopFollow) {
		return err
	}
	return nil
}

// FollowOptions configures Follow.
type FollowOptions struct {
	// Filter is sent to the server as query parameters: workload and
	// since filter the live stream, last replays that many ring-backlog
	// events before live ones.
	Filter EventFilter
	// Max stops the follow (cleanly) after this many events; 0 follows
	// until the stream closes or the context is cancelled.
	Max int
	// Reconnect re-dials a dropped stream instead of returning,
	// resuming from the last seen sequence number via the standard SSE
	// Last-Event-ID header; events replayed across the reconnect are
	// deduplicated, so the callback sees each decision once.
	Reconnect bool
	// MaxRetries bounds consecutive failed connection attempts; a
	// stream that connects successfully resets the count. Zero → 5,
	// negative → retry forever. Ignored unless Reconnect is set.
	MaxRetries int
	// BackoffBase is the first reconnect delay, doubled per failed
	// attempt with full jitter; zero → 500ms.
	BackoffBase time.Duration
	// BackoffMax caps the reconnect delay; zero → 15s.
	BackoffMax time.Duration
	// OnRetry, when non-nil, observes each reconnect attempt before its
	// backoff sleep: the attempt number (1-based, resetting on
	// success), the last sequence seen, the error that dropped the
	// stream (nil when the server closed it cleanly), and the delay
	// about to be slept.
	OnRetry func(attempt int, lastSeq uint64, err error, delay time.Duration)
}

// withQuery appends f's query parameters to url.
func withQuery(url string, f EventFilter) string {
	if q := f.Query().Encode(); q != "" {
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		url += sep + q
	}
	return url
}

// Follow connects to a dvfsd /v1/events URL and invokes fn for every
// decision event until the stream ends, opts.Max events have arrived,
// fn returns ErrStopFollow, or ctx is cancelled (a clean stop, not an
// error). The URL should name the events endpoint itself; filter
// parameters are appended. With opts.Reconnect, a dropped stream is
// re-dialed with jittered exponential backoff, resuming from the last
// delivered sequence number; only consecutive connection failures past
// opts.MaxRetries end the follow.
func Follow(ctx context.Context, url string, opts FollowOptions, fn func(DecisionEvent) error) error {
	firstURL := withQuery(url, opts.Filter)
	// A resumed connection replays from Last-Event-ID, so the ?last=
	// backlog request must not be repeated.
	resumeFilter := opts.Filter
	resumeFilter.Last = 0
	resumeURL := withQuery(url, resumeFilter)

	var (
		lastSeq uint64
		gotAny  bool
		n       int
		fnErr   error
	)
	deliver := func(e DecisionEvent) error {
		if gotAny && e.Seq <= lastSeq {
			return nil // replayed across a reconnect
		}
		if err := fn(e); err != nil {
			fnErr = err
			return err
		}
		gotAny = true
		lastSeq = e.Seq
		n++
		if opts.Max > 0 && n >= opts.Max {
			fnErr = ErrStopFollow
			return ErrStopFollow
		}
		return nil
	}

	maxRetries := opts.MaxRetries
	if maxRetries == 0 {
		maxRetries = 5
	}
	base := opts.BackoffBase
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	maxDelay := opts.BackoffMax
	if maxDelay <= 0 {
		maxDelay = 15 * time.Second
	}

	attempt := 0
	delay := base
	for {
		target := firstURL
		if gotAny {
			target = resumeURL
		}
		before := n
		err := followOnce(ctx, target, lastSeq, gotAny, deliver)
		switch {
		case ctx.Err() != nil:
			return nil // cancelled: a clean stop
		case fnErr != nil:
			if errors.Is(fnErr, ErrStopFollow) {
				return nil
			}
			return fnErr // the callback's error, not the connection's
		case !opts.Reconnect:
			return err
		}
		if n > before {
			// The stream made progress: reset the reconnect budget so
			// only consecutive dead connections exhaust it.
			attempt, delay = 0, base
		}
		attempt++
		if maxRetries >= 0 && attempt > maxRetries {
			if err == nil {
				err = fmt.Errorf("obs: %s: stream closed %d times without progress", url, attempt)
			}
			return err
		}
		// Full jitter on the exponential: sleep in [delay/2, delay].
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		if opts.OnRetry != nil {
			opts.OnRetry(attempt, lastSeq, err, d)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(d):
		}
		delay *= 2
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

// followOnce dials the stream once and decodes it until it ends.
func followOnce(ctx context.Context, url string, lastSeq uint64, resume bool, fn func(DecisionEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if resume {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastSeq, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("obs: %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return ReadSSE(resp.Body, fn)
}
