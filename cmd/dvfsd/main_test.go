package main

import (
	"flag"
	"io"
	"testing"
)

// TestConfigValidate parses each row's flags over dvfsd's defaults
// and checks validate's verdict: every rejection names its flags, and
// the defaults pass.
func TestConfigValidate(t *testing.T) {
	const needScrape = "-rules, -incident-log, and -alert-webhook need -tsdb-scrape > 0 (rules evaluate over the telemetry store)"
	for _, c := range []struct {
		args []string
		want string // "" = valid
	}{
		{nil, ""},
		{[]string{"-slo-target", "-0.01"}, "-slo-target must be in [0, 1)"},
		{[]string{"-slo-target", "1"}, "-slo-target must be in [0, 1)"},
		{[]string{"-fleet-topk", "-1"}, "-fleet-topk and -fleet-max-ingest must be non-negative"},
		{[]string{"-fleet-max-ingest", "-1"}, "-fleet-topk and -fleet-max-ingest must be non-negative"},
		{[]string{"-tsdb-scrape", "-1s"}, "-tsdb-scrape and -tsdb-block must be non-negative"},
		{[]string{"-tsdb-block", "-1s"}, "-tsdb-scrape and -tsdb-block must be non-negative"},
		{[]string{"-energy-budget", "-0.5"}, "-energy-budget must be non-negative"},
		{[]string{"-tsdb-scrape", "0", "-rules", "rules.json"}, needScrape},
		{[]string{"-tsdb-scrape", "0", "-incident-log", "incidents.jsonl"}, needScrape},
		{[]string{"-tsdb-scrape", "0", "-alert-webhook", "http://127.0.0.1:9/hook"}, needScrape},
	} {
		fs := flag.NewFlagSet("dvfsd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var cfg config
		cfg.bind(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got := ""
		if err := cfg.validate(); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%v: validate() = %q, want %q", c.args, got, c.want)
		}
	}
}
