// Command dvfstrace analyzes a decision log (written by dvfssim
// -trace, dvfsd -trace, or dvfsfleet -out) and reports what the
// paper's evaluation cares about: deadline-miss rate, signed-residual
// quantiles (positive residual = under-prediction, the α-penalized
// direction of §3.3), margin attribution (where the budget went:
// predictor, switch estimate, margin), and per-level occupancy.
//
// Usage:
//
//	dvfstrace -input dec.jsonl [-format text|json]
//	          [-workload w] [-device id] [-since sec] [-last n]
//	dvfstrace -input fleet.bin -by-device 10 [-format text|json]
//	dvfstrace -input fleet.bin -convert out.jsonl [-convert-format jsonl|binary]
//	dvfstrace -follow http://127.0.0.1:8090/v1/events
//	          [-follow-max n] [-follow-every n] [filter flags]
//
// -input - reads the log from stdin, so it composes with
// `dvfssim -trace -`. Both trace encodings are accepted
// transparently — the JSONL lines dvfssim/dvfsd write and the
// length-prefixed binary container dvfsfleet writes (sniffed by
// magic). The filter flags slice large production logs without
// external tooling and are shared verbatim with dvfsreplay; -device
// keeps one fleet device's events.
//
// -by-device N switches to the fleet health report: the filtered
// events replay through the same FleetTracker behind dvfsd's GET
// /v1/fleet, and the report rolls up device health classes, residual
// quantiles, and the top-N worst and top-N missing devices.
//
// -convert re-encodes the (filtered) input to -convert-format and
// writes it to the given path ("-" for stdout) instead of analyzing:
// `dvfstrace -input fleet.bin -convert fleet.jsonl` is the JSONL
// export path for binary fleet traces, and `-convert-format binary`
// packs a JSONL log into the compact container.
//
// -follow tails a live dvfsd decision stream (Server-Sent Events)
// instead of reading a file: the filter flags become query parameters
// (-last replays that many ring-backlog events first), a rolling
// one-line summary prints every -follow-every events, and the full
// report renders over the retained window when the stream ends —
// -follow-max events arrived, the server closed, or ctrl-C.
//
// Exit status: 0 on success, 2 on usage errors (unknown flag, missing
// or unreadable input), 1 on analysis or stream failures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// followWindow bounds the events retained while tailing a live
// stream: the rolling summaries and the final report cover at most
// this many recent events, so an unbounded follow cannot grow memory.
const followWindow = 4096

func main() {
	input := flag.String("input", "", "decision log to analyze, JSONL or binary (- for stdin)")
	var c config
	flag.StringVar(&c.convert, "convert", "", "re-encode the filtered input to this path (- for stdout) instead of analyzing")
	flag.StringVar(&c.convertFormat, "convert-format", "jsonl", "encoding for -convert: jsonl or binary")
	follow := flag.String("follow", "", "tail a live dvfsd /v1/events URL instead of reading a log")
	followMax := flag.Int("follow-max", 0, "stop -follow after this many events (0 = until the stream ends)")
	followEvery := flag.Int("follow-every", 25, "print a rolling summary every N followed events (0 disables)")
	followRetries := flag.Int("follow-retries", 5, "reconnect a dropped -follow stream up to this many consecutive failures, resuming via Last-Event-ID (0 disables, -1 retries forever)")
	followBackoff := flag.Duration("follow-backoff", 500*time.Millisecond, "base delay between -follow reconnect attempts (doubled per failure, jittered)")
	flag.StringVar(&c.format, "format", "text", "output format: text or json")
	flag.IntVar(&c.byDevice, "by-device", 0, "report per-device fleet health instead: top-N worst devices (0 disables)")
	c.filter.RegisterFilterFlags(flag.CommandLine)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfstrace:", err)
		flag.Usage()
		os.Exit(2)
	}
	if _, err := logFlags.Logger(os.Stderr); err != nil {
		usageErr(err)
	}
	if *input == "" && *follow == "" {
		usageErr(fmt.Errorf("-input or -follow is required"))
	}
	if *input != "" && *follow != "" {
		usageErr(fmt.Errorf("-input and -follow are mutually exclusive"))
	}
	if c.format != "text" && c.format != "json" {
		usageErr(fmt.Errorf("unknown format %q (use text or json)", c.format))
	}
	if c.convertFormat != "jsonl" && c.convertFormat != "binary" {
		usageErr(fmt.Errorf("unknown convert format %q (use jsonl or binary)", c.convertFormat))
	}
	if c.convert != "" && *follow != "" {
		usageErr(fmt.Errorf("-convert and -follow are mutually exclusive"))
	}
	if c.filter.Last < 0 {
		usageErr(fmt.Errorf("-last must be non-negative"))
	}
	if *followMax < 0 || *followEvery < 0 {
		usageErr(fmt.Errorf("-follow-max and -follow-every must be non-negative"))
	}
	if *followRetries < -1 {
		usageErr(fmt.Errorf("-follow-retries must be -1, 0, or positive"))
	}
	if *followBackoff <= 0 {
		usageErr(fmt.Errorf("-follow-backoff must be positive"))
	}
	if c.byDevice < 0 {
		usageErr(fmt.Errorf("-by-device must be non-negative"))
	}
	if c.byDevice > 0 && (c.convert != "" || *follow != "") {
		usageErr(fmt.Errorf("-by-device is mutually exclusive with -convert and -follow"))
	}
	if *follow != "" {
		if err := runFollow(*follow, c.filter, *followMax, *followEvery, *followRetries, *followBackoff, c.format); err != nil {
			fmt.Fprintln(os.Stderr, "dvfstrace:", err)
			os.Exit(1)
		}
		return
	}
	var rd io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			usageErr(err)
		}
		defer f.Close()
		rd = f
	}
	if err := run(os.Stdout, rd, c); err != nil {
		fmt.Fprintln(os.Stderr, "dvfstrace:", err)
		os.Exit(1)
	}
}

// config holds dvfstrace's validated flags for a log read from -input.
type config struct {
	convert, convertFormat string
	format                 string
	byDevice               int
	filter                 obs.EventFilter
}

// run analyzes the decision log read from rd as c says: the filtered
// events' report, or with c.byDevice their fleet health report, in
// c.format on stdout; with c.convert, the filtered events re-encoded
// to that path instead ("-" is stdout).
func run(stdout io.Writer, rd io.Reader, c config) error {
	events, err := trace.ReadEvents(rd)
	if err != nil {
		return err
	}
	events = c.filter.Apply(events)
	switch {
	case c.convert != "":
		return runConvert(stdout, events, c.convert, c.convertFormat)
	case c.byDevice > 0:
		return runByDevice(stdout, events, c.byDevice, c.format)
	}
	return writeReport(stdout, events, c.format)
}

// runConvert re-encodes events to the requested format at path.
func runConvert(stdout io.Writer, events []obs.DecisionEvent, path, format string) error {
	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if format == "binary" {
		return trace.WriteBinary(out, events)
	}
	sink := obs.NewJSONLSink(out)
	for i := range events {
		sink.Emit(&events[i])
	}
	return sink.Close()
}

func writeReport(w io.Writer, events []obs.DecisionEvent, format string) error {
	report := obs.Analyze(events)
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	report.WriteText(w)
	return nil
}

// runFollow tails a live decision stream, keeping the last
// followWindow events for the rolling summaries and the final report.
// A dropped stream reconnects with backoff (unless retries is 0),
// resuming from the last seen sequence so no decision is double-counted.
func runFollow(url string, filter obs.EventFilter, max, every, retries int, backoff time.Duration, format string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := obs.FollowOptions{Filter: filter, Max: max, BackoffBase: backoff}
	if retries != 0 {
		opts.Reconnect = true
		opts.MaxRetries = retries
		opts.OnRetry = func(attempt int, lastSeq uint64, err error, delay time.Duration) {
			reason := "stream closed"
			if err != nil {
				reason = err.Error()
			}
			fmt.Fprintf(os.Stderr, "dvfstrace: %s; reconnecting in %s (attempt %d, resume after seq %d)\n",
				reason, delay.Round(time.Millisecond), attempt, lastSeq)
		}
	}
	var window []obs.DecisionEvent
	total := 0
	err := obs.Follow(ctx, url, opts, func(e obs.DecisionEvent) error {
		window = append(window, e)
		if len(window) > followWindow {
			window = append(window[:0], window[len(window)-followWindow:]...)
		}
		total++
		if every > 0 && total%every == 0 {
			fmt.Fprintln(os.Stderr, rollingLine(window, total))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "dvfstrace: stream ended with no events")
		return nil
	}
	fmt.Fprintf(os.Stderr, "dvfstrace: stream ended after %d events; report covers the last %d\n",
		total, len(window))
	return writeReport(os.Stdout, window, format)
}

// rollingLine renders the one-line live summary: throughput so far,
// deadline misses over the retained window, and the p95 of the served
// decision's root phase (serve).
func rollingLine(window []obs.DecisionEvent, total int) string {
	miss, done := 0, 0
	for i := range window {
		if window[i].Done {
			done++
			if window[i].Missed {
				miss++
			}
		}
	}
	line := fmt.Sprintf("follow %6d events", total)
	if done > 0 {
		line += fmt.Sprintf("  miss %.1f%% of %d done", 100*float64(miss)/float64(done), done)
	}
	for _, ph := range obs.AnalyzePhases(window) {
		if ph.Name == obs.PhaseServe {
			line += fmt.Sprintf("  %s p95 %s", ph.Name, obs.FormatDur(ph.P95Sec))
		}
	}
	return line
}
