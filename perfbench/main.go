// Command perfbench is the repository's benchmark harness. It runs one
// of three workloads, each loading a different layer of the system,
// checks the program's outputs, and prints one JSON result line:
//
//	perfbench -dvfsd <binary> -workdir <dir> --workload predict --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - predict: closed-loop single-job POST /v1/predict against dvfsd
//     (the per-job decision the paper's §3.4 budget pays for);
//   - fleet_replay: the dvfsfleet | dvfsreplay pipeline in process
//     (simulation, binary trace encode and decode, fleet replay);
//   - fleet_ingest: binary fleet-trace uploads into dvfsd with
//     periodic GET /v1/fleet snapshot reads.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown from a traced run (see
// README.md). run.sh builds dvfsd and this harness and passes the
// -dvfsd and -workdir flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// tally counts operations attempted and failed, keeping the first few
// failure reasons.
type tally struct {
	attempted, failed int
	problems          []string
}

const maxProblems = 10

// fail counts one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
}

// outcome is what one workload run reports.
type outcome struct {
	tally
	e2e    metricSet      // untraced runs
	layers metricSet      // traced runs
	record map[string]any // sizes and ungated diagnostics
}

func newOutcome() *outcome {
	return &outcome{e2e: metricSet{}, layers: metricSet{}, record: map[string]any{}}
}

// env is what every workload needs from the command line.
type env struct {
	dvfsd   string // dvfsd binary
	self    string // this executable, for set-up probes
	workdir string // where traced runs write their spans
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
}

// sizes fixes a workload's input sizes. full is what the benchmark
// measures; probe is what a traced run of another workload uses to
// time this workload's layers; the smoke test uses tiny sizes.
type sizes struct {
	SetupRepeats int `json:"setup_repeats"`

	PoolPerModel int `json:"predict_jobs_per_model"`

	ReplayDevices int `json:"replay_devices"`
	ReplayJobs    int `json:"replay_jobs_per_device"`
	ReplayRuns    int `json:"replay_min_runs"`
	WarmDevices   int `json:"replay_warmup_devices"`

	IngestDevices int `json:"ingest_devices"`
	IngestJobs    int `json:"ingest_jobs_per_device"`
	ChunkDevices  int `json:"ingest_chunk_devices"`
	ReadEvery     int `json:"ingest_uploads_per_read"`
}

// The full sizes are set so that the outcome metrics (energy and
// misses per job), which depend on the seed alone, vary by a few
// percent between seeds: misses cluster in input regimes that last
// about a dozen jobs, so their share settles only over thousands of
// jobs per model and over a thousand and more devices.
var fullSizes = sizes{
	SetupRepeats:  5,
	PoolPerModel:  6000,
	ReplayDevices: 150, ReplayJobs: 10, ReplayRuns: 10, WarmDevices: 10,
	IngestDevices: 3000, IngestJobs: 10, ChunkDevices: 20, ReadEvery: 10,
}

var probeSizes = sizes{
	SetupRepeats:  1,
	PoolPerModel:  100,
	ReplayDevices: 10, ReplayJobs: 10, ReplayRuns: 1, WarmDevices: 2,
	IngestDevices: 200, IngestJobs: 10, ChunkDevices: 20, ReadEvery: 10,
}

// smokeSizes are the harness's own test sizes.
var smokeSizes = sizes{
	SetupRepeats:  2,
	PoolPerModel:  20,
	ReplayDevices: 4, ReplayJobs: 3, ReplayRuns: 2, WarmDevices: 2,
	IngestDevices: 40, IngestJobs: 3, ChunkDevices: 10, ReadEvery: 2,
}

// probeSeconds is the timed phase of a probe run.
const probeSeconds = 1

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"predict":      runPredict,
	"fleet_replay": runFleetReplay,
	"fleet_ingest": runFleetIngest,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traceMode := flag.Int("trace", 0, "0: untraced run with end-to-end metrics; 1: traced run with per-layer metrics")
	dvfsd := flag.String("dvfsd", "", "dvfsd binary (built by run.sh)")
	workdir := flag.String("workdir", ".bench_build", "directory for span files of traced runs")
	setupProbe := flag.Bool("setup-probe", false, "internal: run the fleet pipeline's set-up, print ready, exit")
	smoke := flag.Bool("smoke", false, "internal: tiny input sizes, for the harness's own test")
	flag.Parse()

	if *setupProbe {
		if _, err := replaySetup(fullSizes.ReplayJobs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		usage(fmt.Errorf("unknown -workload %q (want one of %v)", *workload, workloadNames()))
	}
	if *seconds <= 0 {
		usage(fmt.Errorf("-seconds must be positive"))
	}
	if *traceMode != 0 && *traceMode != 1 {
		usage(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *dvfsd == "" {
		usage(fmt.Errorf("-dvfsd is required"))
	}
	if _, err := os.Stat(*dvfsd); err != nil {
		usage(fmt.Errorf("-dvfsd: %w", err))
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := &env{dvfsd: *dvfsd, self: self, workdir: *workdir, seed: *seed,
		seconds: *seconds, traced: *traceMode == 1, sz: fullSizes}
	if *smoke {
		e.sz = smokeSizes
	}
	out, err := runWorkload(ctx, *workload, run, e)
	if err != nil {
		fatal(err)
	}
	report(*workload, e, out)
}

// runWorkload runs the named workload; a traced run then times the
// other workloads' layers on probe-sized inputs, so every traced run
// reports every layer.
func runWorkload(ctx context.Context, name string, run workloadFunc, e *env) (*outcome, error) {
	out, err := run(ctx, e)
	if err != nil || !e.traced {
		return out, err
	}
	for _, other := range workloadNames() {
		if other == name {
			continue
		}
		pe := *e
		pe.seconds = probeSeconds
		if e.sz != smokeSizes {
			pe.sz = probeSizes
		}
		probe, err := workloads[other](ctx, &pe)
		if err != nil {
			return nil, fmt.Errorf("%s layer probe: %w", other, err)
		}
		out.add(probe.tally)
		for k, v := range probe.layers {
			if _, ok := out.layers[k]; !ok {
				out.layers[k] = v
			}
		}
	}
	return out, nil
}

// report prints the run record, then the result line the benchmark
// contract asks for as the last line of standard output.
func report(name string, e *env, out *outcome) {
	metrics := out.e2e
	if e.traced {
		metrics = out.layers
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(metrics, name)
			out.fail("metric %s was not measured", name)
		}
	}
	rec := map[string]any{
		"workload": name,
		"seed":     e.seed,
		"seconds":  e.seconds,
		"traced":   e.traced,
		"host":     hostRecord(),
		"sizes":    e.sz,
	}
	for k, v := range out.record {
		if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			v = nil
		}
		rec[k] = v
	}
	if len(out.problems) > 0 {
		rec["problems"] = out.problems
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("record %s\n", b)

	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics}
	b, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// deriveSeed maps (seed, stream) to an independent input seed, so each
// generated input stream of a run has its own seed.
func deriveSeed(seed int64, stream int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & 0x7fffffffffffffff)
}

// nproc is the worker and connection count the workloads use.
func nproc() int { return runtime.GOMAXPROCS(0) }

// durMS, durUS convert durations for reporting.
func durMS(d time.Duration) float64 { return d.Seconds() * 1e3 }
func durUS(d time.Duration) float64 { return d.Seconds() * 1e6 }
