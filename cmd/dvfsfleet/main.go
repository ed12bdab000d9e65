// Command dvfsfleet simulates a heterogeneous fleet of devices — each
// with its own platform model, workload, phase offset, and seeded
// randomness — and aggregates per-device energy and deadline-miss
// distributions fleet-wide. It answers the population-scale question
// the single-device dvfssim cannot: "across a million devices running
// this governor, what does the p99 device spend?"
//
// Usage:
//
//	dvfsfleet -devices 1000 -platforms a7,x86 -workload-mix sha:3,rijndael:1
//	dvfsfleet -devices 100000 -governor prediction -seed 42
//	dvfsfleet -devices 1000 -out fleet.bin          # binary decision trace
//	dvfsfleet -devices 1000 -out - | dvfsreplay -input -
//
// -out writes every device's decision events as a compact binary trace
// (the length-prefixed container dvfstrace and dvfsreplay sniff by
// magic; "-" streams it to stdout and moves the summary to stderr).
// Without -out the fleet runs aggregate-only — no event
// materialization — which is the fast path for very large fleets.
//
// The run is deterministic for a fixed -seed regardless of -workers:
// device seeds derive from the fleet seed by index, and results commit
// in device order, so aggregates are bit-stable and trace bytes are
// identical across worker counts.
//
// -summary writes the machine-readable fleet result as JSON; -bench
// writes a BENCH-style JSON document (devices/sec, bytes/event for the
// binary encoding vs JSONL) for CI trend tracking.
//
// Exit status: 0 on success, 2 on usage errors, 1 on run failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	devices := flag.Int("devices", 1000, "fleet size")
	platforms := flag.String("platforms", "a7", "comma-separated platform models devices cycle through")
	mixArg := flag.String("workload-mix", "sha", "workload mix as name:weight pairs, e.g. sha:3,rijndael:1")
	governor := flag.String("governor", "prediction", "per-device governor")
	jobs := flag.Int("jobs", 0, "jobs per device (0 = fleet default)")
	budget := flag.Float64("budget", 0, "per-job deadline budget in seconds (0 = workload default)")
	seed := flag.Int64("seed", 1, "fleet seed; fixes every device's seed and phase offset")
	workers := flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	out := flag.String("out", "", "write the fleet decision trace (binary) to this path (- for stdout)")
	summary := flag.String("summary", "", "write the fleet result as JSON to this path")
	bench := flag.String("bench", "", "write a BENCH-style JSON document to this path")
	progressEvery := flag.Int("progress", 10, "progress lines per run on stderr (0 disables)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsfleet:", err)
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsfleet:", err)
		os.Exit(1)
	}
	if _, err := logFlags.Logger(os.Stderr); err != nil {
		usageErr(err)
	}
	if *devices <= 0 {
		usageErr(fmt.Errorf("-devices must be positive"))
	}
	if *progressEvery < 0 {
		usageErr(fmt.Errorf("-progress must be non-negative"))
	}
	mix, err := fleet.ParseMix(*mixArg)
	if err != nil {
		usageErr(err)
	}

	cfg := fleet.Config{
		Devices:   *devices,
		Platforms: splitList(*platforms),
		Mix:       mix,
		Governor:  *governor,
		Jobs:      *jobs,
		BudgetSec: *budget,
		Seed:      *seed,
		Workers:   *workers,
	}

	// The text summary moves to stderr when the trace streams to
	// stdout, mirroring dvfssim -trace -.
	sumOut := io.Writer(os.Stdout)

	var traceFile *os.File
	var binCount *countWriter
	var jsonlCount *countWriter
	var sinks []obs.Sink
	if *out != "" {
		w := io.Writer(os.Stdout)
		if *out == "-" {
			sumOut = os.Stderr
		} else {
			f, err := os.Create(*out)
			if err != nil {
				usageErr(err)
			}
			traceFile = f
			w = f
		}
		binCount = &countWriter{w: w}
		sinks = append(sinks, trace.NewBinaryWriter(binCount))
	} else if *bench != "" {
		// Bench without a trace path still measures the encodings
		// against a discarded stream.
		binCount = &countWriter{w: io.Discard}
		sinks = append(sinks, trace.NewBinaryWriter(binCount))
	}
	if *bench != "" {
		jsonlCount = &countWriter{w: io.Discard}
		sinks = append(sinks, obs.NewJSONLSink(jsonlCount))
	}
	switch len(sinks) {
	case 0:
	case 1:
		cfg.Sink = sinks[0]
	default:
		cfg.Sink = teeSink(sinks)
	}

	if *progressEvery > 0 {
		step := *devices / *progressEvery
		if step < 1 {
			step = 1
		}
		start := time.Now()
		cfg.Progress = func(done, total int) {
			if done%step == 0 || done == total {
				fmt.Fprintf(os.Stderr, "dvfsfleet: %d/%d devices (%.0f%%, %.1fs)\n",
					done, total, 100*float64(done)/float64(total), time.Since(start).Seconds())
			}
		}
	}

	start := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		fail(err)
	}
	if cfg.Sink != nil {
		if err := cfg.Sink.Close(); err != nil {
			fail(err)
		}
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fail(err)
		}
	}
	elapsed := time.Since(start)

	writeSummary(sumOut, res, elapsed)
	if *summary != "" {
		if err := writeJSONFile(*summary, res); err != nil {
			fail(err)
		}
	}
	if *bench != "" {
		if err := writeJSONFile(*bench, benchDoc(res, elapsed, binCount, jsonlCount, cfg)); err != nil {
			fail(err)
		}
	}
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// countWriter counts bytes on their way to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// teeSink fans every event out to each sink; Close closes all and
// returns the first error.
type teeSink []obs.Sink

func (t teeSink) Emit(e *obs.DecisionEvent) {
	for _, s := range t {
		s.Emit(e)
	}
}

func (t teeSink) Close() error {
	var first error
	for _, s := range t {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func writeSummary(w io.Writer, res *fleet.Result, elapsed time.Duration) {
	missRate := 0.0
	if res.Jobs > 0 {
		missRate = float64(res.Misses) / float64(res.Jobs)
	}
	fmt.Fprintf(w, "fleet   %d devices, %d jobs in %.2fs (%.0f devices/sec)\n",
		res.Devices, res.Jobs, elapsed.Seconds(), float64(res.Devices)/elapsed.Seconds())
	fmt.Fprintf(w, "totals  %.3f J, %d misses (%.2f%%)\n", res.EnergyJ, res.Misses, 100*missRate)
	fmt.Fprintf(w, "device energy J    p50 %.4f  p90 %.4f  p95 %.4f  p99 %.4f\n",
		res.DeviceEnergyJ.P50, res.DeviceEnergyJ.P90, res.DeviceEnergyJ.P95, res.DeviceEnergyJ.P99)
	fmt.Fprintf(w, "device miss rate   p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f\n",
		res.DeviceMissRate.P50, res.DeviceMissRate.P90, res.DeviceMissRate.P95, res.DeviceMissRate.P99)
	for _, g := range res.ByPlatform {
		fmt.Fprintf(w, "platform %-12s %8d devices, %10d jobs, %12.3f J, %d misses\n",
			g.Name, g.Devices, g.Jobs, g.EnergyJ, g.Misses)
	}
	for _, g := range res.ByWorkload {
		fmt.Fprintf(w, "workload %-12s %8d devices, %10d jobs, %12.3f J, %d misses\n",
			g.Name, g.Devices, g.Jobs, g.EnergyJ, g.Misses)
	}
	if res.Events > 0 {
		fmt.Fprintf(w, "trace   %d events\n", res.Events)
	}
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchDoc shapes the run into the repo's BENCH JSON convention:
// throughput plus the binary-vs-JSONL encoding comparison when both
// encodings were measured.
func benchDoc(res *fleet.Result, elapsed time.Duration, binCount, jsonlCount *countWriter, cfg fleet.Config) map[string]any {
	doc := map[string]any{
		"bench":           "fleet",
		"devices":         res.Devices,
		"jobs":            res.Jobs,
		"governor":        cfg.Governor,
		"workers":         cfg.Workers,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"seconds":         elapsed.Seconds(),
		"devices_per_sec": float64(res.Devices) / elapsed.Seconds(),
		"events":          res.Events,
	}
	if binCount != nil && res.Events > 0 {
		doc["binary_bytes"] = binCount.n
		doc["binary_bytes_per_event"] = float64(binCount.n) / float64(res.Events)
	}
	if jsonlCount != nil && res.Events > 0 {
		doc["jsonl_bytes"] = jsonlCount.n
		doc["jsonl_bytes_per_event"] = float64(jsonlCount.n) / float64(res.Events)
		if binCount != nil && binCount.n > 0 {
			doc["jsonl_to_binary_ratio"] = float64(jsonlCount.n) / float64(binCount.n)
		}
	}
	return doc
}
