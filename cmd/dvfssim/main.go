// Command dvfssim runs one benchmark under one governor and reports
// energy, deadline misses, and overheads. It can dump the per-job
// trace as CSV and the run summary as JSON.
//
// Usage:
//
//	dvfssim -workload ldecode -governor prediction [-budget 0.05]
//	        [-jobs 300] [-seed 1] [-idle] [-csv trace.csv] [-json sum.json]
//	        [-trace dec.jsonl] [-chrome trace.json]
//
// -trace - writes the decision JSONL to stdout (and the human summary
// to stderr), so runs pipe straight into dvfsreplay / dvfstrace:
//
//	dvfssim -workload ldecode -trace - | dvfsreplay -html report.html
//
// -chrome - does the same for the Chrome trace; naming - for both is a
// usage error, since one stream cannot hold two documents.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	wName := flag.String("workload", "ldecode", "benchmark name (see Table 2)")
	gName := flag.String("governor", "prediction", "governor: performance, powersave, interactive, ondemand, movingavg, pid, prediction, oracle")
	budget := flag.Float64("budget", 0, "time budget in seconds (0 = paper default)")
	jobs := flag.Int("jobs", 0, "number of jobs (0 = workload default)")
	seed := flag.Int64("seed", 1, "random seed")
	idle := flag.Bool("idle", false, "drop to minimum frequency between jobs (§5.5)")
	csvPath := flag.String("csv", "", "write per-job trace CSV to this path")
	jsonPath := flag.String("json", "", "write run summary JSON to this path")
	tracePath := flag.String("trace", "", "write decision events as JSONL to this path (dvfstrace reads it)")
	chromePath := flag.String("chrome", "", "write a Chrome trace-event file to this path (chrome://tracing, Perfetto)")
	modelPath := flag.String("model", "", "load a trained prediction model (from dvfsprofile -o) instead of training")
	platName := flag.String("platform", "a7", "platform model: a7, x86, biglittle")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	// Validate inputs up front: unknown benchmark / governor / platform
	// names are usage errors (exit 2 with the flag summary), caught
	// before any profiling or simulation work starts.
	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfssim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if _, err := logFlags.Logger(os.Stderr); err != nil {
		usageErr(err)
	}
	if _, err := workload.ByName(*wName); err != nil {
		usageErr(err)
	}
	if _, err := platform.ByName(*platName); err != nil {
		usageErr(err)
	}
	if !validGovernors[*gName] {
		usageErr(fmt.Errorf("unknown governor %q (have: performance, powersave, interactive, ondemand, movingavg, pid, prediction, oracle)", *gName))
	}
	if *tracePath == "-" && *chromePath == "-" {
		usageErr(fmt.Errorf("-trace and -chrome cannot both write to stdout"))
	}

	if err := run(*wName, *gName, *budget, *jobs, *seed, *idle, *csvPath, *jsonPath, *tracePath, *chromePath, *modelPath, *platName); err != nil {
		fmt.Fprintln(os.Stderr, "dvfssim:", err)
		os.Exit(1)
	}
}

// validGovernors mirrors experiments.Suite.Governor's dispatch table.
var validGovernors = map[string]bool{
	"performance": true, "powersave": true, "interactive": true,
	"ondemand": true, "movingavg": true, "pid": true,
	"prediction": true, "oracle": true,
}

func run(wName, gName string, budget float64, jobs int, seed int64, idle bool, csvPath, jsonPath, tracePath, chromePath, modelPath, platName string) error {
	w, err := workload.ByName(wName)
	if err != nil {
		return err
	}
	plat, err := platform.ByName(platName)
	if err != nil {
		return err
	}
	suite := experiments.NewSuiteOn(plat, seed)
	var g governor.Governor
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = core.LoadController(f, w, suite.Plat, suite.Switch)
		if err != nil {
			return err
		}
	} else if g, err = suite.Governor(gName, w); err != nil {
		return err
	}

	// Decision sinks receive the run's decision log (trace.Simulate):
	// one event per job, each completed from the simulator's measured
	// outcome, every duration on the simulated clock. A prediction
	// controller's events also carry what only it sees (feature
	// hashes, raw tfmin/tfmax, the §3.4 budget ledger); other
	// governors' come from the job records. The sinks get the log once
	// the run ends, with every event stamped with the platform. A path
	// of "-" writes the sink to stdout and moves the human summary to
	// stderr.
	var sinks []obs.Sink
	var sinkPaths []string
	summary := os.Stdout
	for _, p := range []struct {
		path string
		mk   func(f *os.File) obs.Sink
	}{
		{tracePath, func(f *os.File) obs.Sink { return obs.NewJSONLSink(f) }},
		{chromePath, func(f *os.File) obs.Sink { return obs.NewChromeTraceSink(f) }},
	} {
		if p.path == "" {
			continue
		}
		f := os.Stdout
		if p.path == "-" {
			summary = os.Stderr
		} else {
			var err error
			if f, err = os.Create(p.path); err != nil {
				return err
			}
			defer f.Close()
		}
		sinks = append(sinks, p.mk(f))
		sinkPaths = append(sinkPaths, p.path)
	}
	cfg := sim.Config{
		Plat:            suite.Plat,
		BudgetSec:       budget,
		Jobs:            jobs,
		Seed:            seed + 7,
		IdleBetweenJobs: idle,
	}
	if _, ok := g.(*governor.Oracle); ok {
		// The paper's oracle analysis removes controller overheads.
		cfg.DisableSwitchLatency = true
		cfg.DisablePredictorCost = true
	}
	r, events, err := trace.Simulate(w, g, cfg)
	if err != nil {
		return err
	}
	// Name the platform on every event, as fleet traces do, so
	// dvfsreplay prices the trace on the platform it ran on.
	for i := range events {
		events[i].Platform = platName
	}
	for _, s := range sinks {
		for i := range events {
			s.Emit(&events[i])
		}
		if err := s.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(summary, "workload   %s (%s)\n", w.Name, w.TaskDesc)
	fmt.Fprintf(summary, "governor   %s\n", r.Governor)
	fmt.Fprintf(summary, "budget     %.3f s x %d jobs\n", r.BudgetSec, len(r.Records))
	fmt.Fprintf(summary, "energy     %.4f J (sensor estimate %.4f J)\n", r.EnergyJ, r.SensorEnergyJ)
	fmt.Fprintf(summary, "misses     %d (%.2f%%)\n", r.Misses, 100*r.MissRate())
	fmt.Fprintf(summary, "overheads  predictor %.3f ms/job, dvfs switch %.3f ms/job\n",
		r.MeanPredictorSec()*1e3, r.MeanSwitchSec()*1e3)
	b := r.Breakdown
	fmt.Fprintf(summary, "breakdown  exec %.3f J, idle %.3f J, switch %.3f J, predictor %.3f J\n",
		b.ExecJ, b.IdleJ, b.SwitchJ, b.PredictorJ)
	for _, p := range sinkPaths {
		fmt.Fprintf(summary, "decisions  %s\n", p)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, r); err != nil {
			return err
		}
		fmt.Fprintf(summary, "trace      %s\n", csvPath)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteJSON(f, r); err != nil {
			return err
		}
		fmt.Fprintf(summary, "summary    %s\n", jsonPath)
	}
	return nil
}
