package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The fleet workloads mirror make fleet-bench: two platforms, a mix
// with an interpreter-heavy workload (sha), few jobs per device.
var (
	fleetPlatforms = []string{"a7", "x86"}
	fleetMix       = "sha:2,rijndael:1,ldecode:1"
)

// replaySetup is everything the dvfsfleet | dvfsreplay pipeline does
// before fleet.Run starts: parse the mix, resolve the platforms, and
// assemble the fleet configuration.
func replaySetup(jobs int) (fleet.Config, error) {
	mix, err := fleet.ParseMix(fleetMix)
	if err != nil {
		return fleet.Config{}, err
	}
	for _, p := range fleetPlatforms {
		if _, err := platform.ByName(p); err != nil {
			return fleet.Config{}, err
		}
	}
	return fleet.Config{
		Platforms: fleetPlatforms,
		Mix:       mix,
		Governor:  "prediction",
		Jobs:      jobs,
		BudgetSec: tightBudgetSec,
		Workers:   nproc(),
	}, nil
}

// pipelineRun is one pass of the what-if pipeline and its checks.
type pipelineRun struct {
	fleet      *fleet.Result
	replay     *replay.FleetReplayResult
	trace      []byte
	report     []byte
	replayCPU  time.Duration
	replayWall time.Duration
}

// timedSink times every trace.BinaryWriter.Emit that fleet.Run makes;
// fleet.Run calls its sink from one commit goroutine.
type timedSink struct {
	inner  obs.Sink
	rec    *recorder
	parent int32
	id     int64
}

func (t *timedSink) Emit(e *obs.DecisionEvent) {
	s := t.rec.begin("trace.encode", t.parent, t.id)
	t.inner.Emit(e)
	t.rec.end(s)
}

func (t *timedSink) Close() error { return nil }

// runPipeline simulates a fleet into an in-memory binary trace,
// decodes it, replays it, and writes the JSON report: the
// dvfsfleet | dvfsreplay pipeline. With a recorder, every stage is a
// span under one pipeline span.
func runPipeline(cfg fleet.Config, devices, workers int, fleetSeed, replaySeed int64, rec *recorder, id int64) (*pipelineRun, error) {
	root := rec.begin("pipeline", -1, id)
	defer rec.end(root)
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	cfg.Devices = devices
	cfg.Seed = fleetSeed
	cfg.Sink = bw
	s := rec.begin("fleet.run", root, id)
	if rec != nil {
		cfg.Sink = &timedSink{inner: bw, rec: rec, parent: s, id: id}
	}
	res, err := fleet.Run(cfg)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("trace.close", root, id)
	err = bw.Close()
	rec.end(s)
	if err != nil {
		return nil, err
	}
	run := &pipelineRun{fleet: res, trace: buf.Bytes()}

	s = rec.begin("trace.read_binary", root, id)
	events, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("replay.run_fleet", root, id)
	t0, c0 := time.Now(), selfCPU()
	rr, err := replay.RunFleet(events, replay.FleetOptions{Seed: replaySeed, Workers: workers})
	run.replayCPU, run.replayWall = selfCPU()-c0, time.Since(t0)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	run.replay = rr
	var report bytes.Buffer
	s = rec.begin("replay.write_json", root, id)
	err = rr.WriteJSON(&report)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	run.report = report.Bytes()
	return run, nil
}

// check compares the replay against the simulation it reconstructs:
// energy within 1 %, misses and jobs exactly.
func (r *pipelineRun) check() error {
	f, rr := r.fleet, r.replay
	if rr.Jobs != f.Jobs || rr.TracedMisses != f.Misses {
		return fmt.Errorf("replay %d jobs / %d misses, simulation %d / %d", rr.Jobs, rr.TracedMisses, f.Jobs, f.Misses)
	}
	if math.Abs(rr.TracedEnergyJ-f.EnergyJ) > 0.01*f.EnergyJ {
		return fmt.Errorf("replay energy %.6f J, simulation %.6f J (over 1%% apart)", rr.TracedEnergyJ, f.EnergyJ)
	}
	return nil
}

func runFleetReplay(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	sz := e.sz

	// Set-up: the pipeline's start-up in fresh processes, so a cache
	// filled by an earlier run cannot hide set-up work.
	var setups, setupWalls []float64
	for r := 0; r < sz.SetupRepeats; r++ {
		cpu, wall, err := setupProbe(ctx, e.self)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
	}
	cfg, err := replaySetup(sz.ReplayJobs)
	if err != nil {
		return nil, err
	}

	// Warm-up on a small fleet with its own seed.
	out.attempted++
	if run, err := runPipeline(cfg, sz.WarmDevices, nproc(), deriveSeed(e.seed, 100), deriveSeed(e.seed, 101), nil, 0); err != nil {
		out.fail("warm-up pipeline: %v", err)
	} else if err := run.check(); err != nil {
		out.fail("warm-up pipeline: %v", err)
	}

	// Timed phase: pipeline runs, each on a fleet and replay seed of
	// its own, for the given time and at least ReplayRuns runs. The
	// paper's outcomes (energy, misses per job) come from the first
	// ReplayRuns runs, so they are fixed by the seed alone.
	rss := sampleRSS(os.Getpid())
	ph, err := replayLoop(ctx, e, cfg, nil)
	if err != nil {
		return nil, err
	}
	out.add(ph.tally)

	peakRSS, err := rss.stop(out.record)
	if err != nil {
		return nil, err
	}
	// CPU is scaled to a fixed host speed (see speedProbe); the raw
	// values are in the record.
	speed := probeRefUS / median(ph.probeUS)
	out.e2e.set("setup_s", median(setups)*speed, "s")
	out.e2e.set("cpu_us_per_job", durUS(ph.cpu)/float64(max(ph.jobs, 1))*speed, "us")
	out.e2e.set("latency_p50_ms", median(ph.runCPUMS)*speed, "ms")
	out.e2e.set("peak_rss_mb", peakRSS, "MiB")
	out.e2e.set("energy_j_per_job", ph.energyJ/float64(max(ph.outcomeJobs, 1)), "J")
	out.e2e.set("miss_rate", float64(ph.misses)/float64(max(ph.outcomeJobs, 1)), "fraction")
	out.record["platforms"] = fleetPlatforms
	out.record["mix"] = fleetMix
	out.record["budget_s"] = tightBudgetSec
	out.record["workers"] = nproc()
	out.record["runs"] = ph.attempted
	out.record["setup_s_all"] = setups
	out.record["setup_wall_s_all"] = setupWalls
	out.record["client.jobs_per_s"] = float64(ph.jobs) / ph.wall.Seconds()
	out.record["pipeline_cpu_ms_all"] = ph.runCPUMS
	out.record["host.steal_frac"] = ph.steal
	out.record["input_sha256"] = ph.inputHash
	out.record["cpu_us_per_job_raw"] = durUS(ph.cpu) / float64(max(ph.jobs, 1))
	out.record["host_speed_probe_us"] = ph.probeUS
	out.record["host_speed_scale"] = speed

	if e.traced {
		if err := traceFleetReplay(ctx, e, out, cfg, ph); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayPhase totals a timed sequence of pipeline runs.
type replayPhase struct {
	tally
	jobs, events int
	devices      int
	traceBytes   int
	skipped      int
	cpu, wall    time.Duration
	replayCPU    time.Duration
	replayWall   time.Duration
	runCPUMS     []float64
	probeUS      []float64 // speedProbe before each run
	runWallMS    []float64
	steal        float64
	inputHash    string

	energyJ     float64
	misses      int
	outcomeJobs int
}

func replayLoop(ctx context.Context, e *env, cfg fleet.Config, rec *recorder) (*replayPhase, error) {
	ph := &replayPhase{}
	ticks0 := readTicks()
	t0, c0 := time.Now(), selfCPU()
	// The probes are not part of the measured phase.
	var probeCPU, probeWall time.Duration
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; i < e.sz.ReplayRuns || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		pt0, pc0 := time.Now(), selfCPU()
		ph.probeUS = append(ph.probeUS, speedProbe())
		probeCPU += selfCPU() - pc0
		probeWall += time.Since(pt0)
		rc0 := selfCPU()
		rt0 := time.Now()
		run, err := runPipeline(cfg, e.sz.ReplayDevices, nproc(), deriveSeed(e.seed, int64(2*i)), deriveSeed(e.seed, int64(2*i+1)), rec, int64(i))
		ph.attempted++
		if err == nil {
			err = run.check()
		}
		if err != nil {
			ph.fail("pipeline run %d: %v", i, err)
			continue
		}
		ph.runCPUMS = append(ph.runCPUMS, durMS(selfCPU()-rc0))
		ph.runWallMS = append(ph.runWallMS, durMS(time.Since(rt0)))
		if i == 0 {
			ph.inputHash = fmt.Sprintf("%x", sha256.Sum256(run.trace))
		}
		ph.jobs += run.fleet.Jobs
		ph.events += run.replay.Events
		ph.devices += run.replay.Devices
		ph.skipped += run.replay.Skipped
		ph.traceBytes += len(run.trace)
		ph.replayCPU += run.replayCPU
		ph.replayWall += run.replayWall
		if i < e.sz.ReplayRuns {
			ph.energyJ += run.fleet.EnergyJ
			ph.misses += run.fleet.Misses
			ph.outcomeJobs += run.fleet.Jobs
		}
	}
	ph.cpu, ph.wall = selfCPU()-c0-probeCPU, time.Since(t0)-probeWall
	ph.steal = stealFrac(ticks0, readTicks())
	return ph, nil
}

// probeRefUS is speedProbe's CPU per round at the reference host speed.
const probeRefUS = 50.0

// speedProbe measures the host's current speed for the pipeline, which
// has no concurrent client to serve as a reference. nproc goroutines
// run a fixed copy of the kernel that dominates the pipeline's CPU
// (platform.MeasureSwitchTable's: draw 500 lognormal latencies, sort
// them, take the 95th percentile), so it meets the same host
// conditions, but no change to the program touches it. It returns CPU
// microseconds per round.
func speedProbe() float64 {
	const rounds = 800
	c0 := selfCPU()
	var wg sync.WaitGroup
	sinks := make([]float64, nproc())
	for g := range sinks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			buf := make([]float64, 500)
			for k := 0; k < rounds; k++ {
				for i := range buf {
					buf[i] = math.Exp(r.NormFloat64()*0.3) * 5e-5
				}
				sort.Float64s(buf)
				sinks[g] += buf[len(buf)*95/100]
			}
		}(g)
	}
	wg.Wait()
	return durUS(selfCPU()-c0) / float64(rounds*len(sinks))
}

// setupProbe starts this executable in set-up probe mode and returns
// the CPU time the probe process used, and the wall time from exec
// until it reported ready.
func setupProbe(ctx context.Context, self string) (cpu, wall time.Duration, err error) {
	cmd := exec.CommandContext(ctx, self, "-setup-probe")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, fmt.Errorf("set-up probe: %w", err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	wall = time.Since(t0)
	waitErr := cmd.Wait()
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, 0, fmt.Errorf("set-up probe: got %q (%v, %v)", line, readErr, waitErr)
	}
	if waitErr != nil {
		return 0, 0, fmt.Errorf("set-up probe: %w", waitErr)
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), wall, nil
}

// traceFleetReplay is the traced half: the same timed loop with a span
// around every stage and every trace encode, plus one core.Build per
// (workload, platform) pair of the mix and the switch-table
// measurement replay repeats for every device.
func traceFleetReplay(ctx context.Context, e *env, out *outcome, cfg fleet.Config, untraced *replayPhase) error {
	base := time.Now()
	rec := newRecorder(base)
	ph, err := replayLoop(ctx, e, cfg, rec)
	if err != nil {
		return err
	}
	out.add(ph.tally)
	st := rec.stats()
	L := out.layers

	events := float64(max(ph.events, 1))
	jobs := float64(max(ph.jobs, 1))
	encode := st["trace.encode"].Total + st["trace.close"].Total
	L.set("fleet.sim_us_per_job", durUS(st["fleet.run"].Self)/jobs, "us")
	L.set("trace.encode_us_per_event", durUS(encode)/events, "us")
	L.set("trace.bytes_per_event", float64(ph.traceBytes)/events, "count")
	L.set("trace.decode_us_per_event", durUS(st["trace.read_binary"].Total)/events, "us")
	L.set("replay.ms_per_device", durMS(ph.replayCPU)/float64(max(ph.devices, 1)), "ms")
	L.set("replay.parallel_eff", ph.replayCPU.Seconds()/(ph.replayWall.Seconds()*float64(nproc())), "fraction")
	L.set("replay.report_ms", st["replay.write_json"].medianSec()*1e3, "ms")
	L.set("replay.skipped_frac", float64(ph.skipped)/events, "fraction")
	covered := (st["pipeline"].Total - st["pipeline"].Self).Seconds() / ph.wall.Seconds()
	L.set("replay.layer_coverage_frac", covered, "fraction")
	if covered < 0.9 {
		out.fail("fleet_replay layers cover %.1f%% of the timed wall time, under 90%%", 100*covered)
	}
	L.set("client.jobs_per_s", jobs/ph.wall.Seconds(), "1/s")
	L.set("client.latency_samples", float64(len(ph.runWallMS)), "count")
	L.set("client.latency_p90_ms", quantile(ph.runWallMS, 0.9), "ms")
	L.set("client.latency_p99_ms", quantile(ph.runWallMS, 0.99), "ms")
	L.set("host.steal_frac", ph.steal, "fraction")
	if u := median(untraced.runCPUMS); u > 0 {
		L.set("bench.trace_overhead_frac", median(ph.runCPUMS)/u-1, "fraction")
	}

	// One core.Build per (workload, platform) pair, as fleet.Run trains
	// them, and the switch-table measurement on each platform.
	var builds, tables []float64
	for _, pn := range fleetPlatforms {
		plat, err := platform.ByName(pn)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			platform.MeasureSwitchTable(plat, 500, 0.95, deriveSeed(e.seed, int64(200+i)))
			tables = append(tables, durMS(time.Since(t0)))
		}
		sw := platform.MeasureSwitchTable(plat, 500, 0.95, e.seed+1000)
		for _, m := range cfg.Mix {
			w, err := workload.ByName(m.Workload)
			if err != nil {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			t0 := time.Now()
			if _, err := core.Build(w, core.Config{Plat: plat, Switch: sw, ProfileSeed: e.seed}); err != nil {
				return err
			}
			builds = append(builds, durMS(time.Since(t0)))
		}
	}
	L.set("core.build_ms", mean(builds), "ms")
	L.set("platform.switch_table_ms", median(tables), "ms")

	fmt.Printf("fleet_replay: layers cover %.1f%% of the timed wall time\n", 100*L["replay.layer_coverage_frac"].Value)
	printSelfTable(os.Stdout, "fleet_replay spans:", st)
	return writeSpans(e, "fleet_replay", rec)
}
