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
	"os"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

func main() {
	input := flag.String("input", "-", "decision log to replay, JSONL or binary (- for stdin)")
	fleetMode := flag.String("fleet", "auto", "fleet replay: auto (fleet when the trace carries device IDs), on, off")
	platName := flag.String("platform", "", "platform the trace was recorded on: a7, x86, biglittle (default: the one its events name, else a7)")
	seed := flag.Int64("seed", 1, "seed for counterfactual switch-latency jitter (same seed → bit-identical output)")
	rho := flag.Float64("rho", 0, "fallback memory-time fraction for cross-frequency time translation (0 → 0.3; predicted jobs estimate it from the trace)")
	alpha := flag.Float64("alpha", 100, "α the traced model was trained with (anchors the α sweep)")
	format := flag.String("format", "text", "stdout format: text or json")
	jsonOut := flag.String("json", "", "also write the machine-readable bench document to this file")
	htmlOut := flag.String("html", "", "also write a self-contained HTML report to this file")
	baseline := flag.String("baseline", "", "compare against this committed bench document and fail on regression")
	maxRegress := flag.Float64("max-regress", 5, "regression tolerance: energy percent / miss-rate points vs -baseline")
	check := flag.Bool("check", false, "assert oracle ≤ traced ≤ performance energy ordering per group")
	workers := flag.Int("workers", 0, "fleet replay parallelism: devices replayed concurrently (0 → GOMAXPROCS); reports are byte-identical at any setting")
	sloTarget := flag.Float64("slo-target", 0, "fleet replay: track keyed SLO burn (fleet/platform/workload) against this miss-rate target (0 disables)")
	var filter obs.EventFilter
	filter.RegisterFilterFlags(flag.CommandLine)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsreplay:", err)
		flag.Usage()
		os.Exit(2)
	}
	log, err := logFlags.Logger(os.Stderr)
	if err != nil {
		usageErr(err)
	}
	if *format != "text" && *format != "json" {
		usageErr(fmt.Errorf("unknown format %q (use text or json)", *format))
	}
	if filter.Last < 0 {
		usageErr(fmt.Errorf("-last must be non-negative"))
	}
	if *maxRegress <= 0 {
		usageErr(fmt.Errorf("-max-regress must be positive"))
	}
	if *fleetMode != "auto" && *fleetMode != "on" && *fleetMode != "off" {
		usageErr(fmt.Errorf("unknown -fleet mode %q (use auto, on, or off)", *fleetMode))
	}
	if *workers < 0 {
		usageErr(fmt.Errorf("-workers must be non-negative"))
	}
	if *sloTarget < 0 || *sloTarget >= 1 {
		usageErr(fmt.Errorf("-slo-target must be in [0,1)"))
	}
	// flagPlat is the -platform model, nil when the flag is unset.
	var flagPlat *platform.Platform
	if *platName != "" {
		if flagPlat, err = platform.ByName(*platName); err != nil {
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

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsreplay:", err)
		os.Exit(1)
	}
	events, err := trace.ReadEvents(rd)
	if err != nil {
		fail(err)
	}
	events = filter.Apply(events)

	isFleet := *fleetMode == "on"
	if *fleetMode == "auto" && filter.Device == "" {
		for i := range events {
			if events[i].Device != "" {
				isFleet = true
				break
			}
		}
	}
	if isFleet {
		if *baseline != "" || *check {
			usageErr(fmt.Errorf("-baseline and -check are single-device modes; use -device to select one device or -fleet off"))
		}
		// Fleet events name their own platforms; -platform, else the
		// A7, is the fallback for events that name none.
		fallback := flagPlat
		if fallback == nil {
			fallback = platform.ODROIDXU3A7()
		}
		var slo *obs.SLOTracker
		if *sloTarget > 0 {
			slo = obs.NewSLOTracker(obs.SLOConfig{Target: *sloTarget, MaxKeys: 64})
		}
		runFleet(events, replay.FleetOptions{
			Plat:        fallback,
			Seed:        *seed,
			Rho:         *rho,
			TracedAlpha: *alpha,
			Workers:     *workers,
			SLO:         slo,
		}, *format, *jsonOut, *htmlOut, fail)
		return
	}
	// A single trace replays on the platform its events name; an
	// explicit -platform must agree with them.
	plat, err := eventsPlatform(events)
	if err != nil {
		fail(err)
	}
	switch {
	case flagPlat != nil && plat != nil && flagPlat.Name != plat.Name:
		usageErr(fmt.Errorf("-platform %s contradicts the trace, recorded on %s", *platName, plat.Name))
	case flagPlat != nil:
		plat = flagPlat
	case plat == nil:
		plat = platform.ODROIDXU3A7()
	}
	res, err := replay.Run(events, replay.Options{
		Plat:        plat,
		Seed:        *seed,
		Rho:         *rho,
		TracedAlpha: *alpha,
	})
	if err != nil {
		fail(err)
	}
	if len(res.Groups) == 0 {
		fail(fmt.Errorf("no replayable (completed) events in the log after filtering"))
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	} else {
		res.WriteText(os.Stdout)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(err)
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fail(err)
		}
		if err := res.WriteHTML(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	exit := 0
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fail(err)
		}
		base, err := replay.ReadBench(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		regressions, notes := replay.Compare(res, base, replay.CompareOptions{
			MaxEnergyRegressPct: *maxRegress,
			MaxMissRegressPts:   *maxRegress,
		})
		for _, n := range notes {
			log.Info("baseline drift", "note", n)
		}
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "dvfsreplay: REGRESSION:", r)
			exit = 1
		}
		if len(regressions) == 0 {
			fmt.Fprintf(os.Stderr, "dvfsreplay: baseline comparison passed (%d groups, tolerance %.1f%%)\n",
				len(res.Groups), *maxRegress)
		}
	}
	if *check {
		if viol := res.CheckOrdering(1); len(viol) > 0 {
			for _, v := range viol {
				fmt.Fprintln(os.Stderr, "dvfsreplay: ORDERING:", v)
			}
			exit = 1
		} else {
			fmt.Fprintln(os.Stderr, "dvfsreplay: energy ordering check passed (oracle ≤ traced ≤ performance)")
		}
	}
	os.Exit(exit)
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

// runFleet renders a fleet-wide replay to stdout and the optional
// json/html files, then exits via the shared failure path on error.
func runFleet(events []obs.DecisionEvent, opts replay.FleetOptions, format, jsonOut, htmlOut string, fail func(error)) {
	res, err := replay.RunFleet(events, opts)
	if err != nil {
		fail(err)
	}
	if format == "json" {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	} else {
		res.WriteText(os.Stdout)
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fail(err)
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if htmlOut != "" {
		f, err := os.Create(htmlOut)
		if err != nil {
			fail(err)
		}
		if err := res.WriteHTML(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}
