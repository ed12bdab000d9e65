package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the harness against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []nameUnit `json:"end_to_end"`
	PerLayer []nameUnit `json:"per_layer"`
}

type nameUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness builds dvfsd and this harness into a temporary directory
// and returns a function running one workload at smoke sizes.
func harness(t *testing.T) func(workload string, seed int64, traced int) (result, map[string]any) {
	t.Helper()
	dir := t.TempDir()
	for bin, pkg := range map[string]string{"dvfsd": "repro/cmd/dvfsd", "perfbench": "."} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, bin), pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return func(workload string, seed int64, traced int) (result, map[string]any) {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, "perfbench"), "-smoke",
			"-dvfsd", filepath.Join(dir, "dvfsd"), "-workdir", dir,
			"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", "1", "--trace", strconv.Itoa(traced))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s seed %d trace %d: %v\n%s", workload, seed, traced, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "record ") {
			t.Fatalf("%s: want a record line before the result, got:\n%s", workload, out)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", workload, err)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "record ")), &rec); err != nil {
			t.Fatalf("%s: bad record line: %v", workload, err)
		}
		return res, rec
	}
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced at tiny sizes:
// each passes its output checks, and reports exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dvfsd")
	}
	spec := loadSpec(t)
	run := harness(t)
	for _, w := range spec.Workloads {
		for traced, want := range [][]nameUnit{0: spec.EndToEnd, 1: spec.PerLayer} {
			res, rec := run(w.Name, 1, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rec["problems"])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics %v, want %d", w.Name, traced, len(res.Metrics), metricNames(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s in %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetrics: another seed generates other
// inputs, and the run reports the same metric set.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dvfsd")
	}
	spec := loadSpec(t)
	run := harness(t)
	for _, w := range spec.Workloads {
		a, recA := run(w.Name, 1, 0)
		b, recB := run(w.Name, 2, 0)
		if recA["input_sha256"] == nil || recA["input_sha256"] == recB["input_sha256"] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs (%v)", w.Name, recA["input_sha256"])
		}
		if strings.Join(metricNames(a.Metrics), ",") != strings.Join(metricNames(b.Metrics), ",") {
			t.Errorf("%s: metric sets differ between seeds: %v vs %v", w.Name, metricNames(a.Metrics), metricNames(b.Metrics))
		}
	}
}

// TestReplayReportIndependentOfWorkers: the fleet_replay pipeline's
// JSON report is byte-identical with one replay worker and with nproc.
func TestReplayReportIndependentOfWorkers(t *testing.T) {
	cfg, err := replaySetup(3)
	if err != nil {
		t.Fatal(err)
	}
	one, err := runPipeline(cfg, 6, 1, 7, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	many, err := runPipeline(cfg, 6, max(nproc(), 2), 7, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.report, many.report) {
		t.Errorf("fleet replay report differs between 1 and %d workers", max(nproc(), 2))
	}
	if err := one.check(); err != nil {
		t.Error(err)
	}
}
