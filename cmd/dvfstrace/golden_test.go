package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden digest file from this run")

const (
	// goldenPath holds one "<sha256>  <name>" line per pinned report,
	// sorted by name (the sha256sum layout).
	goldenPath = "../../testdata/golden/trace-reports.sha256"
	// logsPath pins the decision logs the reports analyze (cmd/dvfssim's
	// golden test).
	logsPath = "../../testdata/golden/decision-logs.sha256"
)

// TestGolden pins, by SHA-256 digest, the text and JSON reports
// dvfstrace's run() writes for every decision log the dvfssim golden
// pins (the 16 dvfssim logs and both fleet traces), and the
// `-by-device 10` fleet health reports, text and JSON, of both fleet
// traces. Each input is checked against its pinned digest first, so
// the reports are those of the pinned logs. A change that moves a
// report on purpose regenerates the digests with `go test
// ./cmd/dvfstrace -run TestGolden -update` (or `make golden UPDATE=1`)
// in the same diff; under -update the inputs are not checked, since
// the dvfssim golden may be rewriting theirs in the same run.
func TestGolden(t *testing.T) {
	logs := readDigests(t, logsPath)
	got := map[string]string{}
	for _, in := range inputs(t) {
		if !*update && digest(in.log) != logs[in.pinned] {
			t.Fatalf("%s: the analyzed log is not the one %s pins as %s", in.name, logsPath, in.pinned)
		}
		views := map[string]int{in.name: 0}
		if strings.HasPrefix(in.name, "dvfsfleet/") {
			views[in.name+"-by-device"] = 10
		}
		for name, byDevice := range views {
			for format, ext := range map[string]string{"text": ".txt", "json": ".json"} {
				var out bytes.Buffer
				if err := run(&out, bytes.NewReader(in.log), config{format: format, byDevice: byDevice}); err != nil {
					t.Fatalf("%s%s: %v", name, ext, err)
				}
				got[name+ext] = digest(out.Bytes())
			}
		}
	}
	if *update {
		writeDigests(t, got)
		return
	}
	want := readDigests(t, goldenPath)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: sha256 %s, golden %q", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but not produced", name, goldenPath)
		}
	}
}

// input is one analyzed decision log and the name logsPath pins it by.
type input struct {
	name, pinned string
	log          []byte
}

// simRuns are the dvfssim runs the dvfssim golden pins: eight
// workload/governor/platform configurations, each with and without
// -idle, except that xpilot's idle run uses movingavg.
var simRuns = []struct {
	workload, governor, platform string
	idle                         bool
}{
	{"ldecode", "prediction", "a7", false},
	{"ldecode", "prediction", "a7", true},
	{"sha", "prediction", "a7", false},
	{"sha", "prediction", "a7", true},
	{"rijndael", "interactive", "a7", false},
	{"rijndael", "interactive", "a7", true},
	{"pocketsphinx", "pid", "x86", false},
	{"pocketsphinx", "pid", "x86", true},
	{"2048", "performance", "biglittle", false},
	{"2048", "performance", "biglittle", true},
	{"uzbl", "prediction", "biglittle", false},
	{"uzbl", "prediction", "biglittle", true},
	{"xpilot", "powersave", "a7", false},
	{"xpilot", "movingavg", "a7", true},
	{"curseofwar", "interactive", "x86", false},
	{"curseofwar", "interactive", "x86", true},
}

// inputs builds the logs the dvfssim golden pins: the JSONL of each of
// simRuns at seed 1, and the binary trace of each of its two fleets.
func inputs(t *testing.T) []input {
	var out []input
	for _, c := range simRuns {
		name := "dvfssim/" + c.workload + "-" + c.governor + "-" + c.platform
		if c.idle {
			name += "-idle"
		}
		out = append(out, input{
			name:   name,
			pinned: name + ".jsonl",
			log:    simLog(t, c.workload, c.governor, c.platform, c.idle),
		})
	}
	for _, f := range []struct {
		name, platforms, mix, governor string
		devices, jobs                  int
		seed                           int64
	}{
		{"prediction", "a7,x86", "sha:2,rijndael:1,ldecode:1", "prediction", 300, 10, 42},
		{"interactive", "a7,x86,biglittle", "sha:1,rijndael:1,ldecode:1,uzbl:1", "interactive", 120, 20, 7},
	} {
		mix, err := fleet.ParseMix(f.mix)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		bw := trace.NewBinaryWriter(&buf)
		_, err = fleet.Run(fleet.Config{
			Devices:   f.devices,
			Platforms: strings.Split(f.platforms, ","),
			Mix:       mix,
			Governor:  f.governor,
			Jobs:      f.jobs,
			Seed:      f.seed,
			Sink:      bw,
		})
		if err == nil {
			err = bw.Close()
		}
		if err != nil {
			t.Fatalf("fleet %s: %v", f.name, err)
		}
		out = append(out, input{
			name:   "dvfsfleet/" + f.name,
			pinned: "dvfsfleet/" + f.name + "-w1.bin",
			log:    buf.Bytes(),
		})
	}
	return out
}

// simLog is the decision log `dvfssim -workload wName -governor gName
// -platform platName [-idle] -trace` writes at its default seed 1.
func simLog(t *testing.T, wName, gName, platName string, idle bool) []byte {
	w, err := workload.ByName(wName)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.ByName(platName)
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuiteOn(plat, 1)
	g, err := suite.Governor(gName, w)
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := trace.Simulate(w, g, sim.Config{Plat: suite.Plat, Seed: 1 + 7, IdleBetweenJobs: idle})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for i := range events {
		events[i].Platform = platName
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func readDigests(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeDigests(t *testing.T, got map[string]string) {
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", got[name], name)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
