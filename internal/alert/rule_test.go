package alert

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestDurationJSON(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"30s"`, 30 * time.Second},
		{`"5m"`, 5 * time.Minute},
		{`2.5`, 2500 * time.Millisecond},
		{`0`, 0},
	}
	for _, c := range cases {
		var d Duration
		if err := d.UnmarshalJSON([]byte(c.in)); err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if time.Duration(d) != c.want {
			t.Fatalf("%s → %v, want %v", c.in, time.Duration(d), c.want)
		}
	}
	for _, bad := range []string{`"nope"`, `true`, `[1]`} {
		var d Duration
		if err := d.UnmarshalJSON([]byte(bad)); err == nil {
			t.Fatalf("%s: accepted", bad)
		}
	}
}

func TestParseRules(t *testing.T) {
	src := `{
	  "rules": [
	    {"name": "drift", "metric": "dvfsd_model_under_rate", "agg": "last",
	     "window": "30s", "op": ">", "threshold": 0.05, "for": "10s",
	     "severity": "critical", "summary": "model is stale"},
	    {"name": "drops", "kind": "burn_rate", "metric": "obs_ring_dropped_total",
	     "labels": {"ring": "decisions"}, "window": 60, "threshold": 0}
	  ]
	}`
	rules, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	if rules[0].Kind != KindThreshold || rules[0].Severity != "critical" {
		t.Fatalf("rule 0 defaults wrong: %+v", rules[0])
	}
	if time.Duration(rules[1].Window) != time.Minute {
		t.Fatalf("bare-seconds window = %v", time.Duration(rules[1].Window))
	}
	sel := rules[1].labelSelector()
	if len(sel) != 1 || sel[0].Name != "ring" || sel[0].Value != "decisions" {
		t.Fatalf("label selector = %v", sel)
	}
}

func TestParseRulesRejectsUnknownFields(t *testing.T) {
	_, err := ParseRules(strings.NewReader(`{"rules": [{"name": "x", "metric": "m", "window": "1s", "treshold": 3}]}`))
	if err == nil {
		t.Fatal("typoed field accepted")
	}
}

func TestRuleValidation(t *testing.T) {
	base := func() Rule {
		return Rule{Name: "r", Metric: "m", Window: Duration(time.Second)}
	}
	bads := []func(*Rule){
		func(r *Rule) { r.Name = "" },
		func(r *Rule) { r.Metric = "" },
		func(r *Rule) { r.Kind = "weird" },
		func(r *Rule) { r.Op = "!=" },
		func(r *Rule) { r.Agg = "median" },
		func(r *Rule) { r.Window = 0 },
		func(r *Rule) { r.For = Duration(-time.Second) },
		func(r *Rule) { r.Severity = "fatal" },
		func(r *Rule) { c := 5.0; r.Threshold = 3; r.Clear = &c }, // clear beyond threshold for >
	}
	for i, mut := range bads {
		r := base()
		mut(&r)
		if err := r.validate(); err == nil {
			t.Fatalf("bad rule %d accepted: %+v", i, r)
		}
	}
	// Hysteresis on the right side of the threshold is fine.
	r := base()
	c := 1.0
	r.Threshold, r.Clear = 3, &c
	if err := r.validate(); err != nil {
		t.Fatalf("valid hysteresis rejected: %v", err)
	}
	// Defaults land.
	r = base()
	if err := r.validate(); err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindThreshold || r.Op != OpGT || r.Severity != "warn" {
		t.Fatalf("defaults: %+v", r)
	}
}

func TestBuiltinRules(t *testing.T) {
	rules := BuiltinRules(BuiltinOptions{})
	names := map[string]Rule{}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			t.Fatalf("builtin %s invalid: %v", r.Name, err)
		}
		names[r.Name] = r
	}
	for _, want := range []string{"model_stale", "slo_burn", "ring_drops", "stream_drops"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("builtin %s missing (have %v)", want, names)
		}
	}
	if _, ok := names["energy_budget_burn"]; ok {
		t.Fatal("energy rule present without EnergyBudget")
	}
	// model_stale judges the drift monitor's exported rate at the
	// monitor's limits: above DriftMaxUnderRate, clearing at half.
	if r := names["model_stale"]; r.Metric != "dvfsd_model_under_rate" || r.Threshold != obs.DriftMaxUnderRate ||
		r.Clear == nil || *r.Clear != obs.DriftMaxUnderRate/2 {
		t.Fatalf("model_stale on %s threshold %g clear %v, want dvfsd_model_under_rate, %g and %g",
			r.Metric, r.Threshold, r.Clear, obs.DriftMaxUnderRate, obs.DriftMaxUnderRate/2)
	}
	// slo_burn fires on the SLO tracker's own slow-window threshold.
	if r := names["slo_burn"]; r.Threshold != obs.SLOSlowBurn || r.Clear == nil || *r.Clear != obs.SLOSlowBurn/2 {
		t.Fatalf("slo_burn threshold %g clear %v, want %g and %g", r.Threshold, r.Clear, obs.SLOSlowBurn, obs.SLOSlowBurn/2)
	}
	// Windows scale with the scrape interval.
	if w := time.Duration(names["model_stale"].Window); w != 50*time.Second {
		t.Fatalf("default window = %v, want 50s", w)
	}
	rules = BuiltinRules(BuiltinOptions{Scrape: 100 * time.Millisecond, EnergyBudget: true})
	found := false
	for _, r := range rules {
		if r.Name == "energy_budget_burn" {
			found = true
		}
		if time.Duration(r.Window) != time.Second {
			t.Fatalf("scaled window for %s = %v, want 1s", r.Name, time.Duration(r.Window))
		}
	}
	if !found {
		t.Fatal("energy rule missing with EnergyBudget")
	}
}

// TestExampleRulesFile keeps the shipped example in sync with the
// schema: it must load, validate, and merge with the builtins without
// a name clash (dvfsd appends -rules files to BuiltinRules).
func TestExampleRulesFile(t *testing.T) {
	extra, err := LoadRules("../../examples/alerts.rules.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) == 0 {
		t.Fatal("example file holds no rules")
	}
	seen := map[string]bool{}
	for _, r := range BuiltinRules(BuiltinOptions{EnergyBudget: true}) {
		seen[r.Name] = true
	}
	for _, r := range extra {
		if err := r.validate(); err != nil {
			t.Errorf("example rule %s: %v", r.Name, err)
		}
		if seen[r.Name] {
			t.Errorf("example rule %s clashes with a builtin or earlier rule", r.Name)
		}
		seen[r.Name] = true
	}
}
