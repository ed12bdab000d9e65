// Package experiments regenerates every table and figure of the
// paper's evaluation (§2, §3.4, §5): each Run* function returns typed
// rows mirroring what the paper plots, and the cmd/dvfsbench tool
// renders them as text tables. DESIGN.md carries the experiment index.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Suite caches the expensive shared artifacts (platform, switch table,
// trained controllers) across experiments.
type Suite struct {
	// Plat is the modeled board.
	Plat *platform.Platform
	// Switch is the measured 95th-percentile switch-time table.
	Switch *platform.SwitchTable
	// Seed drives every stochastic element; a Suite with the same seed
	// reproduces results bit-for-bit.
	Seed int64

	controllers map[string]*core.Controller
}

// NewSuite builds a suite around the ODROID-XU3 A7 model.
func NewSuite(seed int64) *Suite {
	p := platform.ODROIDXU3A7()
	return &Suite{
		Plat:        p,
		Switch:      platform.MeasureSwitchTable(p, 500, 0.95, seed+1000),
		Seed:        seed,
		controllers: map[string]*core.Controller{},
	}
}

// Controller returns the trained prediction controller for w, building
// it on first use.
func (s *Suite) Controller(w *workload.Workload) (*core.Controller, error) {
	if err := TrainControllers(w, s); err != nil {
		return nil, err
	}
	return s.controllers[w.Name], nil
}

// TrainControllers builds w's prediction controller on every suite
// that has none cached yet and caches it there, profiling w once for
// all of them (core.BuildEach) and fitting it per suite platform. The
// suites must share a seed; each controller equals the one
// Suite.Controller would build alone.
func TrainControllers(w *workload.Workload, suites ...*Suite) error {
	var todo []*Suite
	var cfgs []core.Config
	for _, s := range suites {
		if _, ok := s.controllers[w.Name]; !ok {
			todo = append(todo, s)
			cfgs = append(cfgs, s.config())
		}
	}
	if len(todo) == 0 {
		return nil
	}
	ctls, err := core.BuildEach(w, cfgs)
	if err != nil {
		return fmt.Errorf("experiments: building controller for %s: %w", w.Name, err)
	}
	for i, s := range todo {
		s.controllers[w.Name] = ctls[i]
	}
	return nil
}

// config is the suite's configuration of a prediction controller: its
// platform and switch table, profiled at the suite's seed.
func (s *Suite) config() core.Config {
	return core.Config{Plat: s.Plat, ProfileSeed: s.Seed + 17, Switch: s.Switch}
}

// buildEach trains n controllers for w from one profile
// (core.BuildEach): controller i has the suite's configuration as
// vary(i, ·) changes it. A study's configurations share the suite's
// profile, so each study profiles each workload once.
func (s *Suite) buildEach(w *workload.Workload, n int, vary func(i int, c *core.Config)) ([]*core.Controller, error) {
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = s.config()
		vary(i, &cfgs[i])
	}
	return core.BuildEach(w, cfgs)
}

// GovernorNames is the evaluation order of §5.2.
var GovernorNames = []string{"performance", "interactive", "pid", "prediction"}

// Governor instantiates a fresh controller by name for one run
// (stateful governors must not be shared between runs).
func (s *Suite) Governor(name string, w *workload.Workload) (governor.Governor, error) {
	switch name {
	case "performance":
		return &governor.Performance{Plat: s.Plat}, nil
	case "powersave":
		return &governor.Powersave{Plat: s.Plat}, nil
	case "interactive":
		return &governor.Interactive{Plat: s.Plat}, nil
	case "ondemand":
		return &governor.Ondemand{Plat: s.Plat}, nil
	case "movingavg":
		ctrl, err := s.Controller(w)
		if err != nil {
			return nil, err
		}
		return &governor.MovingAverage{Plat: s.Plat, Switch: s.Switch, MemFraction: ctrl.MemFraction()}, nil
	case "pid":
		ctrl, err := s.Controller(w)
		if err != nil {
			return nil, err
		}
		return &governor.PID{Plat: s.Plat, Switch: s.Switch, MemFraction: ctrl.MemFraction()}, nil
	case "prediction":
		return s.Controller(w)
	case "oracle":
		return &governor.Oracle{Plat: s.Plat}, nil
	}
	return nil, fmt.Errorf("experiments: unknown governor %q", name)
}

// runOne simulates workload w under the named governor.
func (s *Suite) runOne(name string, w *workload.Workload, cfg sim.Config) (*sim.Result, error) {
	g, err := s.Governor(name, w)
	if err != nil {
		return nil, err
	}
	cfg.Plat = s.Plat
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed + 7
	}
	return sim.Run(w, g, cfg)
}

// maxJobTimeAtFmax measures the maximum job time at full speed, which
// defines normalized budget 1.0 in Fig 16 ("the tightest budget such
// that all jobs are able to meet their deadline").
func (s *Suite) maxJobTimeAtFmax(w *workload.Workload) (float64, error) {
	r, err := s.runOne("performance", w, sim.Config{NoiseSigma: -1})
	if err != nil {
		return 0, err
	}
	return stats.Summarize(r.ExecTimes()).Max, nil
}

// newX86Suite builds a suite around the x86 platform model for the
// cross-platform feature-selection study (§4.2).
func newX86Suite(seed int64) *Suite {
	return NewSuiteOn(platform.IntelI7(), seed)
}

// NewSuiteOn builds a suite around an arbitrary platform model.
func NewSuiteOn(p *platform.Platform, seed int64) *Suite {
	return &Suite{
		Plat:        p,
		Switch:      platform.MeasureSwitchTable(p, 500, 0.95, seed+2000),
		Seed:        seed,
		controllers: map[string]*core.Controller{},
	}
}
