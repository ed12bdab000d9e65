// Package platform models the hardware substrate the paper measures
// on: the ODROID-XU3 development board's Cortex-A7 cluster with
// discrete DVFS levels, an analytic power model, a DVFS switch-latency
// model (with the microbenchmark that builds the 95th-percentile
// switch-time table of Fig 11), and the board's 213 Hz power sensor.
//
// The paper's controller never touches hardware directly — it observes
// discrete frequency levels, a time-scaling law, switch latencies, and
// an energy integral. This package supplies all four from an analytic
// model so the identical control path runs on any machine.
package platform

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Level is one DVFS operating point. On a heterogeneous platform
// (§3.5's "other performance-energy trade-off mechanisms, such as
// heterogeneous cores") a level also identifies which core cluster it
// runs on, with per-cluster performance and power scaling.
type Level struct {
	// Index is the level's position in Platform.Levels (0 = slowest
	// by effective frequency).
	Index int
	// FreqHz is the clock frequency in Hz.
	FreqHz float64
	// Volt is the supply voltage in volts.
	Volt float64
	// PerfScale multiplies the platform's CPIScale on this level
	// (a wider core needs fewer cycles per work unit). Zero means 1.
	PerfScale float64
	// CdynScale and LeakScale multiply the platform's dynamic and
	// leakage power coefficients on this level. Zero means 1.
	CdynScale, LeakScale float64
	// Cluster labels the core cluster ("A7", "A15"); empty on
	// homogeneous platforms.
	Cluster string
}

// perf returns the level's performance scale with the 1.0 default.
func (l Level) perf() float64 {
	if l.PerfScale == 0 {
		return 1
	}
	return l.PerfScale
}

func (l Level) cdyn() float64 {
	if l.CdynScale == 0 {
		return 1
	}
	return l.CdynScale
}

func (l Level) leak() float64 {
	if l.LeakScale == 0 {
		return 1
	}
	return l.LeakScale
}

// EffFreqHz is the level's effective frequency: the clock rate divided
// by the per-cycle performance scale. Execution time of CPU-bound work
// is work·CPIScale/EffFreqHz, so effective frequency is the common
// axis on which heterogeneous levels are comparable and on which the
// classical DVFS model t = Tmem + Ndep/f stays linear.
func (l Level) EffFreqHz() float64 { return l.FreqHz / l.perf() }

// Platform describes a CPU cluster with DVFS.
type Platform struct {
	// Name identifies the platform ("odroid-xu3-a7", "x86-i7").
	Name string
	// Levels lists operating points in ascending frequency order.
	Levels []Level

	// CdynWPerV2Hz is the effective switched capacitance: dynamic
	// power = Cdyn · V² · f.
	CdynWPerV2Hz float64
	// LeakWPerV models leakage: static power = Leak · V.
	LeakWPerV float64
	// IdleDynFraction is the fraction of dynamic power still drawn
	// while idling at a level (imperfect clock gating).
	IdleDynFraction float64

	// CPIScale converts abstract work units from the task IR into
	// platform cycles (cycles = work · CPIScale). A faster
	// microarchitecture has a smaller CPIScale.
	CPIScale float64
	// MemScale scales the IR's memory time onto this platform's
	// memory system.
	MemScale float64

	// Switch latency model: latency = SwitchBaseSec + SwitchPerVolt ·
	// |ΔV| (+ SwitchClusterSec when the transition migrates between
	// core clusters), multiplied by lognormal jitter with parameter
	// SwitchJitterSigma. Same-level "switches" are free.
	SwitchBaseSec     float64
	SwitchPerVolt     float64
	SwitchClusterSec  float64
	SwitchJitterSigma float64
}

// ODROIDXU3A7 returns the Cortex-A7 cluster model of the paper's
// ODROID-XU3 board: 13 DVFS levels from 200 MHz to 1.4 GHz.
func ODROIDXU3A7() *Platform {
	p := &Platform{
		Name:            "odroid-xu3-a7",
		CdynWPerV2Hz:    4.5e-10,
		LeakWPerV:       0.02,
		IdleDynFraction: 0.25,
		CPIScale:        1.0,
		MemScale:        1.0,

		SwitchBaseSec:     300e-6,
		SwitchPerVolt:     3.0e-3,
		SwitchJitterSigma: 0.35,
	}
	for i := 0; i <= 12; i++ {
		f := (200 + 100*float64(i)) * 1e6
		// Voltage ramps from 0.85 V at 200 MHz to 1.30 V at 1.4 GHz.
		v := 0.85 + 0.45*float64(i)/12
		p.Levels = append(p.Levels, Level{Index: i, FreqHz: f, Volt: v})
	}
	return p
}

// ODROIDXU3A15 returns the board's Cortex-A15 (big) cluster as a
// standalone platform: the paper notes it "saw similar trends when
// running on the A15 core" (§5.1). Parameters match the A15 levels of
// BigLITTLE.
func ODROIDXU3A15() *Platform {
	p := &Platform{
		Name:            "odroid-xu3-a15",
		CdynWPerV2Hz:    4.5e-10 * 3.4,
		LeakWPerV:       0.02 * 7.0,
		IdleDynFraction: 0.25,
		CPIScale:        0.60,
		MemScale:        1.0,

		SwitchBaseSec:     300e-6,
		SwitchPerVolt:     3.0e-3,
		SwitchJitterSigma: 0.35,
	}
	// The kernel exposes the A15 cluster in 100 MHz steps.
	for i := 0; i <= 13; i++ {
		f := (700 + 100*float64(i)) * 1e6
		v := 0.88 + 0.44*float64(i)/13
		p.Levels = append(p.Levels, Level{Index: i, FreqHz: f, Volt: v})
	}
	return p
}

// IntelI7 returns an x86 desktop-class model used for the paper's
// cross-platform feature-selection study (§4.2): a faster core with a
// different level grid and memory system. Task semantics (control
// flow) are identical; only the cost mapping differs.
func IntelI7() *Platform {
	p := &Platform{
		Name:            "x86-i7",
		CdynWPerV2Hz:    9.0e-10,
		LeakWPerV:       2.0,
		IdleDynFraction: 0.05,
		CPIScale:        0.38,
		MemScale:        0.65,

		SwitchBaseSec:     120e-6,
		SwitchPerVolt:     1.2e-3,
		SwitchJitterSigma: 0.30,
	}
	for i := 0; i <= 12; i++ {
		f := (800 + 225*float64(i)) * 1e6
		v := 0.75 + 0.40*float64(i)/12
		p.Levels = append(p.Levels, Level{Index: i, FreqHz: f, Volt: v})
	}
	return p
}

// constructors maps each CLI short name to its model — the mapping
// shared by dvfssim, dvfsd, and the experiment drivers.
var constructors = map[string]func() *Platform{
	"a7":        ODROIDXU3A7,
	"x86":       IntelI7,
	"biglittle": BigLITTLE,
}

// ByName returns a fresh platform model by its CLI short name.
func ByName(name string) (*Platform, error) {
	if mk, ok := constructors[name]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("platform: unknown platform %q (have: a7, x86, biglittle)", name)
}

// NumLevels returns the number of DVFS levels.
func (p *Platform) NumLevels() int { return len(p.Levels) }

// MinLevel returns the slowest operating point.
func (p *Platform) MinLevel() Level { return p.Levels[0] }

// MaxLevel returns the fastest operating point.
func (p *Platform) MaxLevel() Level { return p.Levels[len(p.Levels)-1] }

// LevelAtOrAbove returns the slowest level whose effective frequency
// is at least fHz, or the maximum level when fHz exceeds every level.
// This is the paper's quantization rule: "the actual frequency we
// select is the smallest frequency allowed that is greater than
// fbudget".
func (p *Platform) LevelAtOrAbove(fHz float64) Level {
	for _, l := range p.Levels {
		if l.EffFreqHz() >= fHz {
			return l
		}
	}
	return p.MaxLevel()
}

// Level returns the operating point at index i.
func (p *Platform) Level(i int) (Level, error) {
	if i < 0 || i >= len(p.Levels) {
		return Level{}, fmt.Errorf("platform: level %d out of range [0,%d)", i, len(p.Levels))
	}
	return p.Levels[i], nil
}

// LevelByFreqKHz returns the operating point clocked at exactly khz,
// as recorded in a DecisionEvent's FreqKHz field — how replay checks
// that a trace was produced on the platform it is being replayed
// against.
func (p *Platform) LevelByFreqKHz(khz int64) (Level, bool) {
	for _, l := range p.Levels {
		if int64(l.FreqHz/1e3) == khz {
			return l, true
		}
	}
	return Level{}, false
}

// ActivePower returns the power draw in watts while executing at l.
func (p *Platform) ActivePower(l Level) float64 {
	return p.CdynWPerV2Hz*l.cdyn()*l.Volt*l.Volt*l.FreqHz + p.LeakWPerV*l.leak()*l.Volt
}

// IdlePower returns the power draw while idle (clock mostly gated) at l.
func (p *Platform) IdlePower(l Level) float64 {
	return p.IdleDynFraction*p.CdynWPerV2Hz*l.cdyn()*l.Volt*l.Volt*l.FreqHz + p.LeakWPerV*l.leak()*l.Volt
}

// SwitchPower returns the power draw during a DVFS transition,
// approximated as the mean of the two endpoints' active power.
func (p *Platform) SwitchPower(from, to Level) float64 {
	return (p.ActivePower(from) + p.ActivePower(to)) / 2
}

// HelperPower returns the power drawn by a small helper core running
// the predictor concurrently with the job (the parallel placement of
// §4.3); modeled as active power at the minimum operating point.
func (p *Platform) HelperPower() float64 {
	return p.ActivePower(p.MinLevel())
}

// JobTimeAt converts abstract work (CPU work units, memory seconds)
// into execution time at level l on this platform, per the classical
// model t = Tmem + Ndependent/f (§3.4) on the effective-frequency axis.
func (p *Platform) JobTimeAt(cpuWork, memSec float64, l Level) float64 {
	return memSec*p.MemScale + cpuWork*p.CPIScale/l.EffFreqHz()
}

// SampleSwitchLatency draws one DVFS transition latency. Same-level
// transitions are free; others pay a base cost plus a voltage-delta
// term, with multiplicative lognormal jitter (regulator settling is
// heavy-tailed, which is why the paper uses the 95th percentile).
func (p *Platform) SampleSwitchLatency(from, to Level, rng *rand.Rand) float64 {
	if from.Index == to.Index {
		return 0
	}
	return p.SwitchLatencyAt(from, to, rng.NormFloat64())
}

// SwitchLatencyAt is the latency SampleSwitchLatency returns when its
// draw is the standard normal deviate z, for callers that draw their
// deviates ahead of time.
func (p *Platform) SwitchLatencyAt(from, to Level, z float64) float64 {
	if from.Index == to.Index {
		return 0
	}
	return p.jittered(p.switchMean(from, to), z)
}

// jittered is one latency around a transition's deterministic mean:
// mean·exp(σ·z) for the standard normal deviate z. Every switch
// latency — sampled, priced from a drawn deviate, or measured into a
// table — goes through it, so a simulator and a measured table fed
// the same RNG stream see bit-identical latencies.
func (p *Platform) jittered(mean, z float64) float64 {
	return mean * math.Exp(p.SwitchJitterSigma*z)
}

// switchMean is the deterministic part of a transition's latency.
func (p *Platform) switchMean(from, to Level) float64 {
	mean := p.SwitchBaseSec + p.SwitchPerVolt*math.Abs(from.Volt-to.Volt)
	if from.Cluster != to.Cluster {
		// Cluster migration: context and cache-state transfer.
		mean += p.SwitchClusterSec
	}
	return mean
}

// MeanSwitchLatency returns the analytic mean transition latency,
// used by tests and by the ablation that replaces the 95th-percentile
// table with means.
func (p *Platform) MeanSwitchLatency(from, to Level) float64 {
	if from.Index == to.Index {
		return 0
	}
	// Lognormal jitter has mean exp(σ²/2).
	return p.switchMean(from, to) * math.Exp(p.SwitchJitterSigma*p.SwitchJitterSigma/2)
}

// BigLITTLE returns a heterogeneous platform modeled on the full
// Exynos 5422: the A7 cluster's 13 levels plus the A15 cluster's
// levels, merged and ordered by effective frequency. The A15 retires
// work in ~60% of the A7's cycles (PerfScale 0.6) at several times the
// power; cross-cluster transitions pay a migration penalty on top of
// the voltage ramp. This instantiates §3.5's "heterogeneous cores"
// extension: the predictor's level-selection logic is unchanged — the
// operating-point grid is just richer.
func BigLITTLE() *Platform {
	p := ODROIDXU3A7()
	p.Name = "odroid-xu3-biglittle"
	p.SwitchClusterSec = 2.0e-3
	for i := range p.Levels {
		p.Levels[i].Cluster = "A7"
	}
	// A15 cluster: 800 MHz – 2.0 GHz in 200 MHz steps.
	for i := 0; i <= 6; i++ {
		f := (800 + 200*float64(i)) * 1e6
		v := 0.90 + 0.42*float64(i)/6
		p.Levels = append(p.Levels, Level{
			FreqHz:    f,
			Volt:      v,
			PerfScale: 0.60,
			CdynScale: 3.4,
			LeakScale: 7.0,
			Cluster:   "A15",
		})
	}
	sort.Slice(p.Levels, func(i, j int) bool {
		return p.Levels[i].EffFreqHz() < p.Levels[j].EffFreqHz()
	})
	for i := range p.Levels {
		p.Levels[i].Index = i
	}
	return p
}
