// Command dvfsload is the serving benchmark: it replays a seeded
// workload job stream against a running dvfsd over N concurrent
// connections and reports throughput and latency percentiles.
//
// Usage:
//
//	dvfsload -addr http://127.0.0.1:8090 -workload ldecode -train
//	         [-jobs 1000] [-conns 16] [-batch 1] [-seed 1] [-json out.json]
//
// With -train the model is first trained through the daemon's API
// (train → serve → load-test with one binary). -json also records the
// host (nproc, GOMAXPROCS, Go version). Exit status is non-zero when
// any request fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8090", "dvfsd base URL")
	wName := flag.String("workload", "ldecode", "benchmark name (see Table 2)")
	jobs := flag.Int("jobs", 1000, "total jobs to send")
	conns := flag.Int("conns", 16, "concurrent connections")
	batch := flag.Int("batch", 1, "jobs per request (1 = /v1/predict, >1 = /v1/predict/batch)")
	seed := flag.Int64("seed", 1, "job stream seed")
	budget := flag.Float64("budget", 0, "per-job budget in seconds (0 = workload default)")
	train := flag.Bool("train", false, "train the model through the daemon first")
	trainJobs := flag.Int("train-jobs", 0, "profiling jobs for -train (0 = workload default)")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the daemon to become healthy")
	jsonPath := flag.String("json", "", "write the report JSON to this path")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	// Validate flags and workload before touching the network.
	if _, err := logFlags.Logger(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if _, err := workload.ByName(*wName); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*addr, *wName, *jobs, *conns, *batch, *seed, *budget, *train, *trainJobs, *wait, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", err)
		os.Exit(1)
	}
}

func run(addr, wName string, jobs, conns, batch int, seed int64, budget float64, train bool, trainJobs int, wait time.Duration, jsonPath string) error {
	ctx := context.Background()
	waitCtx, cancel := context.WithTimeout(ctx, wait)
	err := serve.WaitHealthy(waitCtx, addr)
	cancel()
	if err != nil {
		return err
	}

	if train {
		t0 := time.Now()
		st, err := serve.TrainRemote(ctx, addr, wName, serve.TrainConfig{ProfileJobs: trainJobs, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("trained    %s in %.2f s (%d columns, %d selected)\n",
			wName, time.Since(t0).Seconds(), st.Columns, st.Selected)
	}

	stream, err := serve.GenerateJobs(wName, jobs, seed)
	if err != nil {
		return err
	}
	fmt.Printf("replaying  %d %s jobs over %d conns (batch %d) against %s\n",
		len(stream), wName, conns, batch, addr)
	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:   addr,
		Workload:  wName,
		Jobs:      jobs,
		Conns:     conns,
		Batch:     batch,
		Seed:      seed,
		BudgetSec: budget,
	}, stream)
	if err != nil {
		return err
	}

	fmt.Printf("requests   %d (errors %d, codes %v)\n", rep.Requests, rep.Errors, rep.Codes)
	fmt.Printf("duration   %.3f s → %.0f jobs/s\n", rep.DurationSec, rep.Throughput)
	fmt.Printf("latency    p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms  mean %.2f ms\n",
		rep.P50MS, rep.P95MS, rep.P99MS, rep.MaxMS, rep.MeanMS)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("report     %s\n", jsonPath)
	}
	if rep.Errors > 0 {
		return errors.New("load run had request errors")
	}
	return nil
}
