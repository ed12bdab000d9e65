// Package alert is the declarative alerting layer over the embedded
// telemetry store: rules evaluated on every scrape tick, a
// pending→firing→resolved state machine with hysteresis and flap
// suppression, pluggable notifier sinks, and a crash-safe incident log
// — the stateful event layer the drift/SLO/energy gauges feed so the
// closed-loop model lifecycle (ROADMAP open item 1) has something to
// act on. It also owns the online energy meter (energy.go), the live
// counterpart of dvfsreplay's offline reconstruction.
package alert

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Kind selects how a rule turns a window of samples into a breach
// decision.
type Kind string

const (
	// KindThreshold compares an aggregate (Agg) of the window's raw
	// samples against Threshold.
	KindThreshold Kind = "threshold"
	// KindBurnRate compares the counter increase rate over the window
	// (per second, counter resets clamped) against Threshold.
	KindBurnRate Kind = "burn_rate"
	// KindAbsence breaches when the window holds no samples at all —
	// a dead scrape loop or a vanished series.
	KindAbsence Kind = "absence"
	// KindDelta compares last-minus-first over the window against
	// Threshold.
	KindDelta Kind = "delta"
)

// Op is a comparison operator for threshold-style rules.
type Op string

const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
)

// breached reports whether value v violates the rule boundary b.
func (o Op) breached(v, b float64) bool {
	switch o {
	case OpGE:
		return v >= b
	case OpLT:
		return v < b
	case OpLE:
		return v <= b
	default:
		return v > b
	}
}

// Duration marshals as a Go duration string ("30s", "5m") and also
// accepts bare numbers as seconds, so rule files stay readable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch t := v.(type) {
	case float64:
		*d = Duration(time.Duration(t * float64(time.Second)))
		return nil
	case string:
		p, err := time.ParseDuration(t)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", t, err)
		}
		*d = Duration(p)
		return nil
	default:
		return fmt.Errorf("invalid duration %v (want \"30s\" or seconds)", v)
	}
}

// Rule is one declarative alert: a tsdb range query plus the state
// machine parameters. A rule matching several series (for example a
// per-workload gauge) tracks state independently per matched series.
type Rule struct {
	// Name identifies the rule in notifications, incidents, and the
	// /v1/alerts listing. Required, unique within an engine.
	Name string `json:"name"`
	// Kind selects the evaluation (threshold when empty).
	Kind Kind `json:"kind,omitempty"`
	// Metric is the tsdb metric family the rule watches. Required.
	Metric string `json:"metric"`
	// Labels narrows the match (subset semantics, like /v1/query).
	Labels map[string]string `json:"labels,omitempty"`
	// Agg reduces a threshold rule's window: mean (default), min, max,
	// last, count. Ignored by the other kinds.
	Agg string `json:"agg,omitempty"`
	// Window is the query lookback from the evaluation tick. Required.
	Window Duration `json:"window"`
	// Op compares the evaluated value against Threshold (default ">").
	Op Op `json:"op,omitempty"`
	// Threshold is the breach boundary.
	Threshold float64 `json:"threshold"`
	// Clear, when set, is the hysteresis boundary: a firing alert
	// resolves only once the value stops violating Clear (under the
	// same Op). Unset → Threshold, i.e. no hysteresis band.
	Clear *float64 `json:"clear,omitempty"`
	// For is how long the breach must persist before pending becomes
	// firing; 0 fires on the first breaching evaluation.
	For Duration `json:"for,omitempty"`
	// KeepFor is the minimum time a firing alert is held before it may
	// resolve — flap suppression for signals that oscillate across the
	// clear boundary.
	KeepFor Duration `json:"keep_for,omitempty"`
	// Severity is info, warn (default), or critical.
	Severity string `json:"severity,omitempty"`
	// Summary is the human line notifications carry.
	Summary string `json:"summary,omitempty"`
}

// clearBound returns the resolve boundary (hysteresis).
func (r *Rule) clearBound() float64 {
	if r.Clear != nil {
		return *r.Clear
	}
	return r.Threshold
}

// labelSelector renders Labels as the sorted tsdb selector.
func (r *Rule) labelSelector() []tsdb.Label {
	if len(r.Labels) == 0 {
		return nil
	}
	out := make([]tsdb.Label, 0, len(r.Labels))
	for k, v := range r.Labels {
		out = append(out, tsdb.Label{Name: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// validate checks one rule in isolation.
func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule has no name")
	}
	if r.Metric == "" {
		return fmt.Errorf("alert: rule %s has no metric", r.Name)
	}
	if r.Kind == "" {
		r.Kind = KindThreshold
	}
	switch r.Kind {
	case KindThreshold, KindBurnRate, KindAbsence, KindDelta:
	default:
		return fmt.Errorf("alert: rule %s has unknown kind %q (threshold, burn_rate, absence, delta)", r.Name, r.Kind)
	}
	if r.Op == "" {
		r.Op = OpGT
	}
	switch r.Op {
	case OpGT, OpGE, OpLT, OpLE:
	default:
		return fmt.Errorf("alert: rule %s has unknown op %q (>, >=, <, <=)", r.Name, r.Op)
	}
	switch r.Agg {
	case "", "mean", "min", "max", "last", "count":
	default:
		return fmt.Errorf("alert: rule %s has unknown agg %q (mean, min, max, last, count)", r.Name, r.Agg)
	}
	if r.Window <= 0 {
		return fmt.Errorf("alert: rule %s needs a positive window", r.Name)
	}
	if r.For < 0 || r.KeepFor < 0 {
		return fmt.Errorf("alert: rule %s has a negative for/keep_for", r.Name)
	}
	if r.Severity == "" {
		r.Severity = "warn"
	}
	switch r.Severity {
	case "info", "warn", "critical":
	default:
		return fmt.Errorf("alert: rule %s has unknown severity %q (info, warn, critical)", r.Name, r.Severity)
	}
	// Hysteresis must not resolve while still breaching: the clear
	// boundary has to sit on or inside the threshold under Op.
	if r.Clear != nil && r.Op.breached(*r.Clear, r.Threshold) && *r.Clear != r.Threshold {
		return fmt.Errorf("alert: rule %s clear %g is beyond threshold %g for op %q", r.Name, *r.Clear, r.Threshold, r.Op)
	}
	return nil
}

// ruleFile is the on-disk schema: a top-level object so the format can
// grow fields without breaking old files.
type ruleFile struct {
	Rules []Rule `json:"rules"`
}

// ParseRules decodes a rules file (JSON: {"rules": [...]}) and
// validates every rule.
func ParseRules(r io.Reader) ([]Rule, error) {
	var f ruleFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("alert: parsing rules: %w", err)
	}
	for i := range f.Rules {
		if err := f.Rules[i].validate(); err != nil {
			return nil, err
		}
	}
	return f.Rules, nil
}

// LoadRules reads and parses a rules file from disk.
func LoadRules(path string) ([]Rule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rules, err := ParseRules(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rules, nil
}

// BuiltinOptions parameterize the shipped rules. Windows scale with
// the scrape interval so the rules behave the same on a 100ms test
// scrape and a 5s production scrape.
type BuiltinOptions struct {
	// Scrape is the telemetry scrape interval; zero → 5s.
	Scrape time.Duration
	// EnergyBudget adds the energy-budget burn rule (set when dvfsd
	// runs with -energy-budget > 0).
	EnergyBudget bool
}

// BuiltinRules returns the rules dvfsd ships enabled by default:
// model drift, SLO burn, ring/stream drops, and (optionally) energy
// budget burn.
func BuiltinRules(opts BuiltinOptions) []Rule {
	scrape := opts.Scrape
	if scrape <= 0 {
		scrape = 5 * time.Second
	}
	window := Duration(10 * scrape)
	hold := Duration(2 * scrape)
	zero := 0.0
	staleClear := obs.DriftMaxUnderRate / 2
	half := obs.SLOSlowBurn / 2
	rules := []Rule{{
		Name:      "model_stale",
		Kind:      KindThreshold,
		Metric:    "dvfsd_model_under_rate",
		Agg:       "last",
		Window:    window,
		Op:        OpGT,
		Threshold: obs.DriftMaxUnderRate,
		Clear:     &staleClear,
		For:       hold,
		Severity:  "critical",
		Summary:   "model under-prediction rate exceeds the trained quantile — consider retraining",
	}, {
		Name:      "slo_burn",
		Kind:      KindThreshold,
		Metric:    "dvfsd_slo_burn_rate",
		Labels:    map[string]string{"window": "slow"},
		Agg:       "last",
		Window:    window,
		Op:        OpGE,
		Threshold: obs.SLOSlowBurn,
		Clear:     &half,
		For:       hold,
		Severity:  "critical",
		Summary:   "deadline-miss burn rate is consuming the SLO error budget",
	}, {
		Name:      "ring_drops",
		Kind:      KindBurnRate,
		Metric:    "obs_ring_dropped_total",
		Window:    window,
		Op:        OpGT,
		Threshold: 0,
		Clear:     &zero,
		Severity:  "warn",
		Summary:   "decision ring is overwriting events faster than consumers read them",
	}, {
		Name:      "stream_drops",
		Kind:      KindBurnRate,
		Metric:    "obs_stream_dropped_total",
		Window:    window,
		Op:        OpGT,
		Threshold: 0,
		Clear:     &zero,
		Severity:  "warn",
		Summary:   "a /v1/events subscriber is falling behind and dropping events",
	}}
	if opts.EnergyBudget {
		halfBurn := 0.5
		rules = append(rules, Rule{
			Name:      "energy_budget_burn",
			Kind:      KindThreshold,
			Metric:    "dvfsd_energy_budget_burn",
			Labels:    map[string]string{"window": "slow"},
			Agg:       "last",
			Window:    window,
			Op:        OpGE,
			Threshold: 1,
			Clear:     &halfBurn,
			For:       hold,
			Severity:  "critical",
			Summary:   "measured power draw is over the configured energy budget",
		})
	}
	return rules
}
