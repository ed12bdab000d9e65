// Package fleet simulates a heterogeneous device population — the
// evaluation harness the paper never had. The paper (§5) evaluates
// prediction-guided DVFS on one ODROID board; the questions a
// deployment actually asks are population-level: "what does a 5%
// margin cut cost in deadline misses across a million heterogeneous
// devices?". fleet answers them by driving N simulated devices (each
// with its own platform model, workload, phase offset, and seeded
// RNG) through a worker pool and aggregating per-device energy and
// miss distributions online with obs streaming-quantile sketches.
//
// Determinism is load-bearing: for a fixed Config the aggregate
// result and every emitted trace byte are identical regardless of
// worker count or scheduling. Workers finish devices out of order;
// a commit stage reassembles them in device-index order before any
// float is summed, any sketch fed, or any event emitted, so
// the accumulation order — and therefore every bit of the output —
// is fixed by the configuration alone. The cross-check in
// TestFleetMatchesPerDeviceSims (aggregate == sum of standalone
// dvfssim-equivalent runs) holds exactly, not approximately.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MixEntry is one workload with an integer weight: a mix of
// "ldecode:3,sha:1" assigns 3 of every 4 devices ldecode.
type MixEntry struct {
	Workload string
	Weight   int
}

// ParseMix parses "w1:3,w2:1" (weight defaults to 1 when omitted, as
// in "ldecode,sha"). Workload names are validated against the
// registry.
func ParseMix(s string) ([]MixEntry, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("fleet: empty workload mix")
	}
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if _, err := workload.ByName(name); err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: %w", part, err)
		}
		weight := 1
		if hasWeight {
			var err error
			weight, err = strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil || weight < 1 {
				return nil, fmt.Errorf("fleet: mix entry %q: weight must be a positive integer", part)
			}
		}
		mix = append(mix, MixEntry{Workload: name, Weight: weight})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("fleet: empty workload mix")
	}
	return mix, nil
}

// Config describes a fleet run. Everything downstream — device specs,
// seeds, phase offsets, trace bytes — is a pure function of it.
type Config struct {
	// Devices is the fleet size.
	Devices int
	// Platforms are the platform models devices cycle through
	// (platform.ByName names). Empty selects the A7 board alone.
	Platforms []string
	// Mix assigns workloads to devices by weight. Empty selects sha.
	Mix []MixEntry
	// Governor names the per-device governor (experiments.Suite
	// names); empty selects "prediction".
	Governor string
	// Jobs is the per-device job count; zero selects 20 (enough for
	// level churn, small enough for 100k-device CI smoke runs).
	Jobs int
	// BudgetSec is the per-job deadline budget; zero selects each
	// workload's paper default.
	BudgetSec float64
	// Seed drives everything: controller training, switch-table
	// measurement, per-device seeds and phase offsets.
	Seed int64
	// Workers bounds simulation concurrency; zero selects
	// runtime.GOMAXPROCS.
	Workers int
	// Sink, when non-nil, receives every device's decision log
	// (trace.Simulate: one completed event per job) in device order,
	// with globally reassigned sequence numbers and without span
	// ledgers. Nil skips event materialization entirely — the
	// aggregate-only fast path the 100k-device bench uses.
	Sink obs.Sink
	// Progress, when non-nil, is called from the commit stage as
	// devices complete (monotonic done counts, in order).
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if len(c.Platforms) == 0 {
		c.Platforms = []string{"a7"}
	}
	if len(c.Mix) == 0 {
		c.Mix = []MixEntry{{Workload: "sha", Weight: 1}}
	}
	if c.Governor == "" {
		c.Governor = "prediction"
	}
	if c.Jobs == 0 {
		c.Jobs = 20
	}
	return c
}

// DeviceSpec pins down one simulated device. Specs are derived
// deterministically from (Config, index) — see Spec.
type DeviceSpec struct {
	// Index is the device's position in the fleet, ID its stable name
	// ("dev-0000042").
	Index int
	ID    string
	// Platform and Workload name the device's hardware model and job
	// stream.
	Platform string
	Workload string
	// Seed is the device-private RNG seed; SimConfig passes Seed+7 to
	// the simulator, matching the dvfssim CLI convention so a fleet
	// device can be reproduced standalone.
	Seed int64
	// JobOffset is the device's phase offset into the workload input
	// stream (sim.Config.JobOffset): devices sharing a workload do
	// not execute identical input sequences in lockstep.
	JobOffset int
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash
// from (base seed, device index) to a device seed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Spec derives device i's spec from the config: platform and workload
// cycle deterministically (platforms round-robin, workloads by mix
// weight), seed and phase offset come from a SplitMix64 hash of
// (Config.Seed, i).
func (c Config) Spec(i int) DeviceSpec {
	c = c.withDefaults()
	slots := 0
	for _, m := range c.Mix {
		slots += m.Weight
	}
	slot := i % slots
	wl := c.Mix[len(c.Mix)-1].Workload
	for _, m := range c.Mix {
		if slot < m.Weight {
			wl = m.Workload
			break
		}
		slot -= m.Weight
	}
	h := splitmix64(uint64(c.Seed) ^ splitmix64(uint64(i)+1))
	return DeviceSpec{
		Index:     i,
		ID:        fmt.Sprintf("dev-%07d", i),
		Platform:  c.Platforms[i%len(c.Platforms)],
		Workload:  wl,
		Seed:      int64(h & 0x7fffffffffffffff),
		JobOffset: int((h >> 17) % 1024),
	}
}

// SimConfig is the exact simulator configuration device spec runs
// under — exported so the determinism cross-check (and anyone
// reproducing one fleet device standalone) can run sim.Run with
// byte-identical inputs.
func (c Config) SimConfig(spec DeviceSpec, plat *platform.Platform) sim.Config {
	c = c.withDefaults()
	return sim.Config{
		Plat:      plat,
		BudgetSec: c.BudgetSec,
		Jobs:      c.Jobs,
		Seed:      spec.Seed + 7,
		JobOffset: spec.JobOffset,
	}
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Spec    DeviceSpec
	EnergyJ float64
	Jobs    int
	Misses  int
}

// MissRate is the device's deadline-miss fraction.
func (d *DeviceResult) MissRate() float64 {
	if d.Jobs == 0 {
		return 0
	}
	return float64(d.Misses) / float64(d.Jobs)
}

// GroupAgg aggregates a slice of the fleet (one platform, or one
// workload).
type GroupAgg struct {
	Name    string
	Devices int
	Jobs    int
	Misses  int
	EnergyJ float64
}

// MissRate is the group's deadline-miss fraction.
func (g *GroupAgg) MissRate() float64 {
	if g.Jobs == 0 {
		return 0
	}
	return float64(g.Misses) / float64(g.Jobs)
}

// Quantiles summarizes a per-device distribution.
type Quantiles struct {
	P50, P90, P95, P99 float64
}

// Result is the fleet-level aggregate.
type Result struct {
	// Devices/Jobs/Misses/EnergyJ are fleet totals, folded in device
	// order (bit-stable float sums).
	Devices int
	Jobs    int
	Misses  int
	EnergyJ float64
	// DeviceEnergyJ and DeviceMissRate are streaming-quantile
	// estimates of the per-device distributions.
	DeviceEnergyJ  Quantiles
	DeviceMissRate Quantiles
	// ByPlatform and ByWorkload break the fleet down, sorted by name.
	ByPlatform []GroupAgg
	ByWorkload []GroupAgg
	// PerDevice holds every device's outcome, in index order.
	PerDevice []DeviceResult
	// Events is the number of decision events delivered to Config.Sink
	// (zero when no sink was configured).
	Events uint64
}

// MissRate is the fleet-wide deadline-miss fraction.
func (r *Result) MissRate() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Jobs)
}

// devOut carries one finished device from a worker to the commit
// stage.
type devOut struct {
	res    DeviceResult
	events []obs.DecisionEvent
}

// Run simulates the fleet. Deterministic for a fixed Config:
// scheduling never reorders aggregation or trace output.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("fleet: device count must be positive, got %d", cfg.Devices)
	}

	// Resolve platforms and pre-train controllers serially: the suite
	// controller cache is not locked, so all writes happen before the
	// pool starts and workers only ever read it. One suite per
	// platform; each mix workload is profiled once and fitted per
	// (platform, workload) from that profile, so training cost is paid
	// once per workload and platform, not per device.
	plats := make(map[string]*platform.Platform, len(cfg.Platforms))
	suites := make(map[string]*experiments.Suite, len(cfg.Platforms))
	var suiteList []*experiments.Suite
	for _, name := range cfg.Platforms {
		if _, ok := plats[name]; ok {
			continue
		}
		p, err := platform.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		plats[name] = p
		suites[name] = experiments.NewSuiteOn(p, cfg.Seed)
		suiteList = append(suiteList, suites[name])
	}
	needsController := cfg.Governor == "prediction" || cfg.Governor == "pid" || cfg.Governor == "movingavg"
	for _, m := range cfg.Mix {
		w, err := workload.ByName(m.Workload)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if needsController {
			if err := experiments.TrainControllers(w, suiteList...); err != nil {
				return nil, err
			}
			continue
		}
		// Validate the governor name once per platform.
		for _, s := range suiteList {
			if _, err := s.Governor(cfg.Governor, w); err != nil {
				return nil, err
			}
		}
	}

	// Workers finish devices out of order; the commit stage folds them
	// in device-index order, single-threaded, so everything
	// order-sensitive (float sums, sketch updates, trace emission,
	// sequence numbering) is fixed by the configuration.
	agg := newAggregator(cfg)
	err := ordered.Run(cfg.Devices, cfg.Workers,
		func(i int) (devOut, error) { return runDevice(cfg, cfg.Spec(i), suites, plats) },
		func(i int, out devOut) {
			agg.commit(&out)
			if cfg.Progress != nil {
				cfg.Progress(i+1, cfg.Devices)
			}
		})
	if err != nil {
		return nil, err
	}
	return agg.result(), nil
}

// runDevice simulates one device: resolve its workload and governor,
// run it, with its decision log when events are wanted, and adapt the
// outcome. A prediction governor is the suite's trained controller,
// shared by every device of its (platform, workload) and every worker:
// it holds no mutable state after Build, and a traced decision's event
// lives in trace.Simulate's log, not in the controller. The
// per-decision work inside the run is the already-annotated
// //dvfs:hotpath controller path (core.Controller.PredictTrace).
func runDevice(cfg Config, spec DeviceSpec, suites map[string]*experiments.Suite, plats map[string]*platform.Platform) (devOut, error) {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return devOut{}, fmt.Errorf("fleet: device %s: %w", spec.ID, err)
	}
	suite := suites[spec.Platform]
	gov, err := suite.Governor(cfg.Governor, w)
	if err != nil {
		return devOut{}, fmt.Errorf("fleet: device %s: %w", spec.ID, err)
	}
	simCfg := cfg.SimConfig(spec, plats[spec.Platform])
	var out devOut
	var r *sim.Result
	if cfg.Sink != nil {
		r, out.events, err = trace.Simulate(w, gov, simCfg)
	} else {
		r, err = sim.Run(w, gov, simCfg)
	}
	if err != nil {
		return devOut{}, fmt.Errorf("fleet: device %s: %w", spec.ID, err)
	}
	out.res = DeviceResult{
		Spec:    spec,
		EnergyJ: r.EnergyJ,
		Jobs:    len(r.Records),
		Misses:  r.Misses,
	}
	for i := range out.events {
		out.events[i].Device = spec.ID
		out.events[i].Platform = spec.Platform
		// Span ledgers measure the *host's* per-phase decision latency
		// on its wall clock — meaningless for a simulated device, and
		// the one wall-clock-dependent field that would break
		// bit-identical traces across runs. Fleet traces carry
		// simulated time only.
		out.events[i].Spans = nil
		out.events[i].SpanTotalSec = 0
	}
	return out, nil
}

// aggregator folds committed devices into the fleet result. All state
// is touched only by the commit stage.
type aggregator struct {
	cfg Config
	res Result
	// energySk and missSk, t-digests, answer the per-device quantile
	// queries (≤1% rank error, TestFleetSketchQuantilesMatchExact).
	energySk   *obs.QuantileSketch
	missSk     *obs.QuantileSketch
	byPlatform map[string]*GroupAgg
	byWorkload map[string]*GroupAgg
	seq        uint64
}

func newAggregator(cfg Config) *aggregator {
	return &aggregator{
		cfg:        cfg,
		energySk:   obs.NewQuantileSketch(0),
		missSk:     obs.NewQuantileSketch(0),
		byPlatform: map[string]*GroupAgg{},
		byWorkload: map[string]*GroupAgg{},
	}
}

func (a *aggregator) group(m map[string]*GroupAgg, name string) *GroupAgg {
	g, ok := m[name]
	if !ok {
		g = &GroupAgg{Name: name}
		m[name] = g
	}
	return g
}

func (a *aggregator) commit(out *devOut) {
	d := &out.res
	a.res.Devices++
	a.res.Jobs += d.Jobs
	a.res.Misses += d.Misses
	a.res.EnergyJ += d.EnergyJ
	a.energySk.Add(d.EnergyJ)
	a.missSk.Add(d.MissRate())
	for _, g := range []*GroupAgg{
		a.group(a.byPlatform, d.Spec.Platform),
		a.group(a.byWorkload, d.Spec.Workload),
	} {
		g.Devices++
		g.Jobs += d.Jobs
		g.Misses += d.Misses
		g.EnergyJ += d.EnergyJ
	}
	a.res.PerDevice = append(a.res.PerDevice, *d)
	if a.cfg.Sink != nil {
		a.emitEvents(out.events)
	}
}

// emitEvents renumbers a committed device's events into the global
// fleet sequence and forwards them to the sink — the fleet-side
// per-event hot loop every traced decision funnels through (tens of
// millions of events on large fleets).
//
//dvfs:hotpath
func (a *aggregator) emitEvents(events []obs.DecisionEvent) {
	for i := range events {
		a.seq++
		events[i].Seq = a.seq
		//dvfs:allow-alloc dynamic sink dispatch; concrete sinks gate their own hot paths (BinaryWriter.Emit is alloc-gated)
		a.cfg.Sink.Emit(&events[i])
	}
	a.res.Events += uint64(len(events))
}

func (a *aggregator) result() *Result {
	q := func(s *obs.QuantileSketch) Quantiles {
		return Quantiles{
			P50: s.Quantile(0.50),
			P90: s.Quantile(0.90),
			P95: s.Quantile(0.95),
			P99: s.Quantile(0.99),
		}
	}
	a.res.DeviceEnergyJ = q(a.energySk)
	a.res.DeviceMissRate = q(a.missSk)
	a.res.ByPlatform = sortedGroups(a.byPlatform)
	a.res.ByWorkload = sortedGroups(a.byWorkload)
	return &a.res
}

func sortedGroups(m map[string]*GroupAgg) []GroupAgg {
	out := make([]GroupAgg, 0, len(m))
	for _, g := range m {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
