// Command dvfsreplay is the offline counterfactual-analysis tool over
// decision logs: it reconstructs the energy the traced policy spent
// (attributed to execution, predictor, DVFS switches, and idle slack)
// and replays every decision under counterfactual policies — oracle,
// performance, powersave, the PID baseline, and what-if margin/α
// sweeps of the predictor — without re-running the workload. When
// events carry per-phase span ledgers (dvfssim/dvfsd with tracing on)
// the report also attributes the predictor overhead to measured
// phases — slice eval, model predict, level select — alongside the
// static estimate the energy reconstruction charges.
//
// A single trace replays on the platform its events name (dvfssim and
// dvfsfleet stamp it on every event); -platform names it for traces
// whose events carry none (default a7) and is a usage error when it
// contradicts them.
//
// Fleet traces (dvfsfleet -out, binary or exported JSONL) replay
// device by device: each device's events reconstruct against its own
// platform (-platform, default a7, for events that name none), and the
// margin sweep aggregates into fleet distributions
// (p50/p95/p99 per-device energy delta, fleet miss rate, per-platform
// breakdown). -fleet auto (the default) selects fleet mode when the
// trace carries device IDs; -device replays one device single-mode.
// Devices replay in parallel (-workers, default GOMAXPROCS) with
// in-order commits, so every report is byte-identical regardless of
// worker count; -slo-target adds a keyed fleet SLO burn section
// (fleet-wide plus per-platform and per-workload keys).
//
// Usage:
//
//	dvfssim -workload ldecode -governor prediction -trace - | dvfsreplay -html report.html
//	dvfsreplay -input dec.jsonl -format json
//	dvfsreplay -input dec.jsonl -json BENCH_replay.json -baseline BENCH_replay.json -max-regress 5
//	dvfsreplay -input dec.jsonl -check
//	dvfsreplay -input fleet.bin -html fleet.html          # fleet margin sweep
//	dvfsreplay -input fleet.bin -device dev-0000003 -fleet off
//
// -baseline compares against a committed BENCH_replay.json and exits
// 1 when energy regresses more than -max-regress percent (or a miss
// rate by more than -max-regress points). -check asserts the physical
// ordering every healthy prediction trace satisfies: oracle ≤ traced
// ≤ performance energy.
//
// Exit status: 0 on success, 2 on usage errors, 1 on analysis
// failures, regressions, or ordering violations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

func main() {
	input := flag.String("input", "-", "decision log to replay, JSONL or binary (- for stdin)")
	var c config
	flag.StringVar(&c.fleetMode, "fleet", "auto", "fleet replay: auto (fleet when the trace carries device IDs), on, off")
	flag.StringVar(&c.platName, "platform", "", "platform the trace was recorded on: a7, x86, biglittle (default: the one its events name, else a7)")
	flag.Int64Var(&c.seed, "seed", 1, "seed for counterfactual switch-latency jitter (same seed → bit-identical output)")
	flag.Float64Var(&c.rho, "rho", 0, "fallback memory-time fraction for cross-frequency time translation (0 → 0.3; predicted jobs estimate it from the trace)")
	flag.Float64Var(&c.alpha, "alpha", 100, "α the traced model was trained with (anchors the α sweep)")
	flag.StringVar(&c.format, "format", "text", "stdout format: text or json")
	flag.StringVar(&c.jsonOut, "json", "", "also write the machine-readable bench document to this file")
	flag.StringVar(&c.htmlOut, "html", "", "also write a self-contained HTML report to this file")
	flag.StringVar(&c.baseline, "baseline", "", "compare against this committed bench document and fail on regression")
	flag.Float64Var(&c.maxRegress, "max-regress", 5, "regression tolerance: energy percent / miss-rate points vs -baseline")
	flag.BoolVar(&c.check, "check", false, "assert oracle ≤ traced ≤ performance energy ordering per group")
	flag.IntVar(&c.workers, "workers", 0, "fleet replay parallelism: devices replayed concurrently (0 → GOMAXPROCS); reports are byte-identical at any setting")
	flag.Float64Var(&c.sloTarget, "slo-target", 0, "fleet replay: track keyed SLO burn (fleet/platform/workload) against this miss-rate target (0 disables)")
	c.filter.RegisterFilterFlags(flag.CommandLine)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsreplay:", err)
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if c.log, err = logFlags.Logger(os.Stderr); err != nil {
		usageErr(err)
	}
	if c.format != "text" && c.format != "json" {
		usageErr(fmt.Errorf("unknown format %q (use text or json)", c.format))
	}
	if c.filter.Last < 0 {
		usageErr(fmt.Errorf("-last must be non-negative"))
	}
	if c.maxRegress <= 0 {
		usageErr(fmt.Errorf("-max-regress must be positive"))
	}
	if c.fleetMode != "auto" && c.fleetMode != "on" && c.fleetMode != "off" {
		usageErr(fmt.Errorf("unknown -fleet mode %q (use auto, on, or off)", c.fleetMode))
	}
	if c.workers < 0 {
		usageErr(fmt.Errorf("-workers must be non-negative"))
	}
	if c.sloTarget < 0 || c.sloTarget >= 1 {
		usageErr(fmt.Errorf("-slo-target must be in [0,1)"))
	}
	if c.platName != "" {
		if c.plat, err = platform.ByName(c.platName); err != nil {
			usageErr(err)
		}
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

	exit, err := run(os.Stdout, os.Stderr, rd, c)
	switch {
	case exit == 2:
		usageErr(err)
	case err != nil:
		fmt.Fprintln(os.Stderr, "dvfsreplay:", err)
	}
	os.Exit(exit)
}

// config holds dvfsreplay's validated flags.
type config struct {
	fleetMode string
	// platName is -platform, and plat its model (nil when unset).
	platName         string
	plat             *platform.Platform
	seed             int64
	rho, alpha       float64
	format           string
	jsonOut, htmlOut string
	baseline         string
	maxRegress       float64
	check            bool
	workers          int
	sloTarget        float64
	filter           obs.EventFilter
	log              *slog.Logger
}

// run replays the decision log read from rd as c says: the report in
// c.format on stdout, the JSON bench document and HTML report in the
// files c names, and the baseline and ordering verdicts on stderr. It
// returns the exit status: 2 with the error when the trace contradicts
// the flags, 1 with the error on an analysis failure, and 1 without
// one on a regression or ordering violation.
func run(stdout, stderr io.Writer, rd io.Reader, c config) (int, error) {
	events, err := trace.ReadEvents(rd)
	if err != nil {
		return 1, err
	}
	events = c.filter.Apply(events)

	isFleet := c.fleetMode == "on"
	if c.fleetMode == "auto" && c.filter.Device == "" {
		for i := range events {
			if events[i].Device != "" {
				isFleet = true
				break
			}
		}
	}
	if isFleet {
		if c.baseline != "" || c.check {
			return 2, fmt.Errorf("-baseline and -check are single-device modes; use -device to select one device or -fleet off")
		}
		// Fleet events name their own platforms; -platform, else the
		// A7, is the fallback for events that name none.
		fallback := c.plat
		if fallback == nil {
			fallback = platform.ODROIDXU3A7()
		}
		var slo *obs.SLOTracker
		if c.sloTarget > 0 {
			slo = obs.NewSLOTracker(obs.SLOConfig{Target: c.sloTarget, MaxKeys: 64})
		}
		res, err := replay.RunFleet(events, replay.FleetOptions{
			Plat:        fallback,
			Seed:        c.seed,
			Rho:         c.rho,
			TracedAlpha: c.alpha,
			Workers:     c.workers,
			SLO:         slo,
		})
		if err != nil {
			return 1, err
		}
		if c.format == "json" {
			if err := res.WriteJSON(stdout); err != nil {
				return 1, err
			}
		} else {
			res.WriteText(stdout)
		}
		return 0, writeReports(c, res)
	}
	// A single trace replays on the platform its events name; an
	// explicit -platform must agree with them.
	plat, err := eventsPlatform(events)
	if err != nil {
		return 1, err
	}
	switch {
	case c.plat != nil && plat != nil && c.plat.Name != plat.Name:
		return 2, fmt.Errorf("-platform %s contradicts the trace, recorded on %s", c.platName, plat.Name)
	case c.plat != nil:
		plat = c.plat
	case plat == nil:
		plat = platform.ODROIDXU3A7()
	}
	res, err := replay.Run(events, replay.Options{
		Plat:        plat,
		Seed:        c.seed,
		Rho:         c.rho,
		TracedAlpha: c.alpha,
	})
	if err != nil {
		return 1, err
	}
	if len(res.Groups) == 0 {
		return 1, fmt.Errorf("no replayable (completed) events in the log after filtering")
	}

	if c.format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 1, err
		}
	} else {
		res.WriteText(stdout)
	}
	if err := writeReports(c, res); err != nil {
		return 1, err
	}

	exit := 0
	if c.baseline != "" {
		f, err := os.Open(c.baseline)
		if err != nil {
			return 1, err
		}
		base, err := replay.ReadBench(f)
		f.Close()
		if err != nil {
			return 1, err
		}
		regressions, notes := replay.Compare(res, base, replay.CompareOptions{
			MaxEnergyRegressPct: c.maxRegress,
			MaxMissRegressPts:   c.maxRegress,
		})
		for _, n := range notes {
			c.log.Info("baseline drift", "note", n)
		}
		for _, r := range regressions {
			fmt.Fprintln(stderr, "dvfsreplay: REGRESSION:", r)
			exit = 1
		}
		if len(regressions) == 0 {
			fmt.Fprintf(stderr, "dvfsreplay: baseline comparison passed (%d groups, tolerance %.1f%%)\n",
				len(res.Groups), c.maxRegress)
		}
	}
	if c.check {
		if viol := res.CheckOrdering(1); len(viol) > 0 {
			for _, v := range viol {
				fmt.Fprintln(stderr, "dvfsreplay: ORDERING:", v)
			}
			exit = 1
		} else {
			fmt.Fprintln(stderr, "dvfsreplay: energy ordering check passed (oracle ≤ traced ≤ performance)")
		}
	}
	return exit, nil
}

// report is a replay result, single-device or fleet.
type report interface {
	WriteJSON(io.Writer) error
	WriteHTML(io.Writer) error
}

// writeReports writes res's JSON bench document and HTML report to
// the files c names.
func writeReports(c config, res report) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{c.jsonOut, res.WriteJSON}, {c.htmlOut, res.WriteHTML}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// eventsPlatform returns the platform a single-device trace's events
// name (dvfssim and dvfsfleet stamp it on every event), or nil when
// they name none. Events that name two platforms cannot be priced on
// one platform's tables.
func eventsPlatform(events []obs.DecisionEvent) (*platform.Platform, error) {
	var named *platform.Platform
	var namedAs string
	for i := range events {
		name := events[i].Platform
		if name == "" || name == namedAs {
			continue
		}
		p, err := platform.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("event seq %d: %w", events[i].Seq, err)
		}
		if named != nil && p.Name != named.Name {
			return nil, fmt.Errorf("the trace's events name platforms %s and %s; replay one device with -device, or the whole fleet in fleet mode",
				namedAs, name)
		}
		named, namedAs = p, name
	}
	return named, nil
}
