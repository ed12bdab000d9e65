package fleet

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("ldecode:3, sha:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []MixEntry{{Workload: "ldecode", Weight: 3}, {Workload: "sha", Weight: 1}}
	if len(mix) != 2 || mix[0] != want[0] || mix[1] != want[1] {
		t.Fatalf("got %+v, want %+v", mix, want)
	}
	if mix, err = ParseMix("sha"); err != nil || mix[0].Weight != 1 {
		t.Fatalf("bare name should default to weight 1: %+v, %v", mix, err)
	}
	for _, bad := range []string{"", "nosuch:1", "sha:0", "sha:-1", "sha:x", ","} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", bad)
		}
	}
}

func TestSpecDerivation(t *testing.T) {
	cfg := Config{
		Devices:   100,
		Platforms: []string{"a7", "x86"},
		Mix:       []MixEntry{{Workload: "ldecode", Weight: 3}, {Workload: "sha", Weight: 1}},
		Seed:      5,
	}
	// Deterministic: same (config, index) → same spec.
	if a, b := cfg.Spec(17), cfg.Spec(17); a != b {
		t.Fatalf("spec not deterministic: %+v vs %+v", a, b)
	}
	// Platforms round-robin; the mix honors its 3:1 weights.
	counts := map[string]int{}
	offsets := map[int]bool{}
	seeds := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := cfg.Spec(i)
		if want := cfg.Platforms[i%2]; s.Platform != want {
			t.Fatalf("device %d platform %q, want %q", i, s.Platform, want)
		}
		counts[s.Workload]++
		offsets[s.JobOffset] = true
		seeds[s.Seed] = true
	}
	if counts["ldecode"] != 75 || counts["sha"] != 25 {
		t.Fatalf("mix weights not honored: %v", counts)
	}
	// Phase offsets and seeds must actually vary across the fleet.
	if len(offsets) < 10 || len(seeds) != 100 {
		t.Fatalf("poor spec dispersion: %d distinct offsets, %d distinct seeds", len(offsets), len(seeds))
	}
}

// smallConfig is a fleet sized for unit tests: heterogeneous
// (2 platforms x 2 workloads) but quick to train and run.
func smallConfig() Config {
	return Config{
		Devices:   10,
		Platforms: []string{"a7", "x86"},
		Mix:       []MixEntry{{Workload: "sha", Weight: 1}},
		Governor:  "prediction",
		Jobs:      8,
		Seed:      3,
	}
}

// perfbenchConfig is the fleet perfbench's fleet_replay pipeline
// simulates, at a test's size: two platforms, a three-workload mix, and
// its tight 30 ms budget.
func perfbenchConfig() Config {
	return Config{
		Devices:   16,
		Platforms: []string{"a7", "x86"},
		Mix: []MixEntry{
			{Workload: "sha", Weight: 2},
			{Workload: "rijndael", Weight: 1},
			{Workload: "ldecode", Weight: 1},
		},
		Governor:  "prediction",
		Jobs:      10,
		BudgetSec: 0.030,
		Seed:      15,
	}
}

// TestFleetMatchesPerDeviceSims is the determinism cross-check: the
// fleet aggregate energy and miss totals must equal — exactly, not approximately — the sum of standalone
// per-device simulator runs with the same seeds, platforms, and
// phase offsets, because the fleet commit stage folds devices in
// index order and each device's simulation is a pure function of its
// spec. The standalone runs train each platform's controllers on
// their own, so the check also pins the fleet's shared-profile
// training to Build's.
func TestFleetMatchesPerDeviceSims(t *testing.T) {
	t.Run("small", func(t *testing.T) { checkMatchesPerDeviceSims(t, smallConfig()) })
	t.Run("perfbench", func(t *testing.T) { checkMatchesPerDeviceSims(t, perfbenchConfig()) })
}

func checkMatchesPerDeviceSims(t *testing.T, cfg Config) {
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	suites := map[string]*experiments.Suite{}
	var wantEnergy float64
	wantMisses, wantJobs := 0, 0
	for i := 0; i < cfg.Devices; i++ {
		spec := cfg.Spec(i)
		plat, err := platform.ByName(spec.Platform)
		if err != nil {
			t.Fatal(err)
		}
		suite, ok := suites[spec.Platform]
		if !ok {
			suite = experiments.NewSuiteOn(plat, cfg.Seed)
			suites[spec.Platform] = suite
		}
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		gov, err := suite.Governor(cfg.Governor, w)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(w, gov, cfg.SimConfig(spec, plat))
		if err != nil {
			t.Fatal(err)
		}
		wantEnergy += r.EnergyJ
		wantMisses += r.Misses
		wantJobs += len(r.Records)

		d := got.PerDevice[i]
		if d.EnergyJ != r.EnergyJ || d.Misses != r.Misses || d.Jobs != len(r.Records) {
			t.Fatalf("device %d (%s): fleet {E %v, miss %d, jobs %d} != standalone {E %v, miss %d, jobs %d}",
				i, spec.ID, d.EnergyJ, d.Misses, d.Jobs, r.EnergyJ, r.Misses, len(r.Records))
		}
	}
	if got.EnergyJ != wantEnergy || got.Misses != wantMisses || got.Jobs != wantJobs {
		t.Fatalf("fleet aggregate {E %v, miss %d, jobs %d} != per-device sum {E %v, miss %d, jobs %d}",
			got.EnergyJ, got.Misses, got.Jobs, wantEnergy, wantMisses, wantJobs)
	}
	if got.Devices != cfg.Devices || len(got.PerDevice) != cfg.Devices {
		t.Fatalf("device counts: %d aggregate, %d per-device, want %d", got.Devices, len(got.PerDevice), cfg.Devices)
	}
}

// TestFleetDeterministicAcrossWorkers proves scheduling independence:
// aggregates and every trace byte are identical for 1 worker and for
// many.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*Result, []byte) {
		cfg := smallConfig()
		cfg.Workers = workers
		var buf bytes.Buffer
		bw := trace.NewBinaryWriter(&buf)
		cfg.Sink = bw
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res1, trace1 := run(1)
	res8, trace8 := run(8)

	if res1.EnergyJ != res8.EnergyJ || res1.Misses != res8.Misses ||
		res1.Jobs != res8.Jobs || res1.Events != res8.Events {
		t.Fatalf("aggregates differ across worker counts:\n 1: %+v\n 8: %+v", res1, res8)
	}
	if !bytes.Equal(trace1, trace8) {
		t.Fatalf("trace bytes differ across worker counts (%d vs %d bytes)", len(trace1), len(trace8))
	}
	if res1.Events == 0 {
		t.Fatal("traced fleet run emitted no events")
	}

	// The trace must carry fleet metadata: device IDs, per-event
	// platforms, and a gapless global sequence.
	events, err := trace.ReadBinary(bytes.NewReader(trace1))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != res1.Events {
		t.Fatalf("trace has %d events, result says %d", len(events), res1.Events)
	}
	devices := map[string]bool{}
	for i := range events {
		e := &events[i]
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d; fleet sequences must be gapless from 1", i, e.Seq)
		}
		if e.Device == "" || e.Platform == "" {
			t.Fatalf("event %d missing fleet metadata: device %q platform %q", i, e.Device, e.Platform)
		}
		devices[e.Device] = true
	}
	if len(devices) != smallConfig().Devices {
		t.Fatalf("trace covers %d devices, want %d", len(devices), smallConfig().Devices)
	}
}

func TestFleetGroupBreakdowns(t *testing.T) {
	cfg := smallConfig()
	cfg.Mix = []MixEntry{{Workload: "sha", Weight: 1}, {Workload: "rijndael", Weight: 1}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByPlatform) != 2 || len(res.ByWorkload) != 2 {
		t.Fatalf("breakdowns: %d platforms, %d workloads, want 2 and 2", len(res.ByPlatform), len(res.ByWorkload))
	}
	var sumE float64
	var sumDev int
	for _, g := range res.ByPlatform {
		sumE += g.EnergyJ
		sumDev += g.Devices
	}
	if sumDev != res.Devices {
		t.Fatalf("platform groups cover %d devices, fleet has %d", sumDev, res.Devices)
	}
	// Groups partition the fleet; their energies must sum to the total
	// up to float association (groups fold in commit order too, but
	// interleaved across groups).
	if diff := sumE - res.EnergyJ; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("platform group energy %v != fleet energy %v", sumE, res.EnergyJ)
	}
	q := res.DeviceEnergyJ
	if !(q.P50 > 0 && q.P50 <= q.P95 && q.P95 <= q.P99) {
		t.Fatalf("device energy quantiles not ordered: %+v", q)
	}
}

func TestFleetBadConfig(t *testing.T) {
	cases := []Config{
		{Devices: 0},
		{Devices: 2, Platforms: []string{"nosuch"}},
		{Devices: 2, Governor: "nosuch"},
		{Devices: 2, Mix: []MixEntry{{Workload: "nosuch", Weight: 1}}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run succeeded, want error", i)
		}
	}
}

func TestFleetBaselineGovernor(t *testing.T) {
	cfg := smallConfig()
	cfg.Governor = "performance"
	var mem obs.MemorySink
	cfg.Sink = &mem
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("baseline fleet emitted no events (record adapter path)")
	}
	evs := mem.Events()
	if evs[0].Device == "" || evs[0].Governor != "performance" {
		t.Fatalf("baseline event metadata wrong: %+v", evs[0])
	}
	// Performance pins fmax: no misses expected at default budgets.
	if res.MissRate() > 0.5 {
		t.Fatalf("implausible miss rate %v under performance governor", res.MissRate())
	}
}

// TestFleetSketchQuantilesMatchExact: the Result's sketch-backed
// per-device distributions must sit within 1% rank error of the exact
// quantiles computed from PerDevice — the acceptance bar the t-digest
// was brought in to meet (a log-linear bucket histogram cannot promise
// this when a distribution concentrates in one bucket).
func TestFleetSketchQuantilesMatchExact(t *testing.T) {
	cfg := Config{
		Devices:   600,
		Platforms: []string{"a7", "x86"},
		Mix:       []MixEntry{{Workload: "sha", Weight: 2}, {Workload: "ldecode", Weight: 1}},
		Jobs:      8,
		Seed:      42,
		Workers:   4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	energies := make([]float64, 0, len(res.PerDevice))
	rates := make([]float64, 0, len(res.PerDevice))
	for i := range res.PerDevice {
		energies = append(energies, res.PerDevice[i].EnergyJ)
		rates = append(rates, res.PerDevice[i].MissRate())
	}
	sort.Float64s(energies)
	sort.Float64s(rates)
	// rankErr measures how far got's rank interval sits from p. A
	// repeated value occupies a rank *range* (miss rates tie heavily at
	// 0); any p inside the range is exact.
	rankErr := func(sorted []float64, got, p float64) float64 {
		n := float64(len(sorted))
		lo := float64(sort.SearchFloat64s(sorted, got)) / n
		hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(got, math.Inf(1)))) / n
		switch {
		case p < lo:
			return lo - p
		case p > hi:
			return p - hi
		default:
			return 0
		}
	}
	checks := []struct {
		name   string
		sorted []float64
		q      Quantiles
	}{
		{"energy", energies, res.DeviceEnergyJ},
		{"missrate", rates, res.DeviceMissRate},
	}
	for _, c := range checks {
		for _, pq := range []struct {
			p   float64
			got float64
		}{{0.50, c.q.P50}, {0.90, c.q.P90}, {0.95, c.q.P95}, {0.99, c.q.P99}} {
			if err := rankErr(c.sorted, pq.got, pq.p); err > 0.01 {
				t.Errorf("%s q%.0f: sketch %.6g rank error %.4f > 1%%",
					c.name, pq.p*100, pq.got, err)
			}
		}
	}
}
