package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
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
	goldenPath = "../../testdata/golden/replay-reports.sha256"
	// logsPath pins the decision logs the reports replay (cmd/dvfssim's
	// golden test).
	logsPath = "../../testdata/golden/decision-logs.sha256"
)

// spanFields is the one normalization rule of the decision-log
// goldens: delete the span ledger's two wall-clock fields, with their
// leading comma. Replaying the normalized log keeps every measured
// phase out of the reports.
var spanFields = regexp.MustCompile(`,"spans":\[[^\]]*\]|,"span_total_sec":[^,}]*`)

// TestGolden pins, by SHA-256 digest, the text, JSON and HTML reports
// dvfsreplay's run() writes at seeds 0, 1 and 7 for every decision log
// the dvfssim golden pins: the 16 span-normalized dvfssim logs, and
// both fleet traces, replayed in fleet mode. Each input is checked
// against its pinned digest first, so the reports are those of the
// pinned logs. A change that moves a report on purpose regenerates the
// digests with `go test ./cmd/dvfsreplay -run TestGolden -update` (or
// `make golden UPDATE=1`) in the same diff; under -update the inputs
// are not checked, since the dvfssim golden may be rewriting theirs in
// the same run.
func TestGolden(t *testing.T) {
	logs := readDigests(t, logsPath)
	got := map[string]string{}
	dir := t.TempDir()
	for _, in := range inputs(t) {
		if !*update && digest(in.log) != logs[in.pinned] {
			t.Fatalf("%s: the replayed log is not the one %s pins as %s", in.name, logsPath, in.pinned)
		}
		for _, seed := range []int64{0, 1, 7} {
			name := fmt.Sprintf("%s-s%d", in.name, seed)
			jsonOut := filepath.Join(dir, "report.json")
			htmlOut := filepath.Join(dir, "report.html")
			var text bytes.Buffer
			exit, err := run(&text, io.Discard, bytes.NewReader(in.log), config{
				fleetMode:  "auto",
				seed:       seed,
				alpha:      100,
				format:     "text",
				jsonOut:    jsonOut,
				htmlOut:    htmlOut,
				maxRegress: 5,
			})
			if err != nil || exit != 0 {
				t.Fatalf("%s: exit %d: %v", name, exit, err)
			}
			got[name+".txt"] = digest(text.Bytes())
			for ext, path := range map[string]string{".json": jsonOut, ".html": htmlOut} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got[name+ext] = digest(data)
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

// input is one replayed decision log and the name logsPath pins it by.
type input struct {
	name, pinned string
	log          []byte
}

// inputs builds the logs the dvfssim golden pins: the JSONL each of
// its eight dvfssim configurations writes at seed 1, with and without
// -idle (span-normalized), and the binary trace of each of its two
// fleets.
func inputs(t *testing.T) []input {
	var out []input
	for _, c := range []struct{ workload, governor, platform string }{
		{"ldecode", "prediction", "a7"},
		{"sha", "prediction", "a7"},
		{"rijndael", "interactive", "a7"},
		{"pocketsphinx", "pid", "x86"},
		{"2048", "performance", "biglittle"},
		{"uzbl", "prediction", "biglittle"},
		{"xpilot", "powersave", "a7"},
		{"curseofwar", "interactive", "x86"},
	} {
		for _, idle := range []bool{false, true} {
			name := c.workload + "-" + c.governor + "-" + c.platform
			if idle {
				name += "-idle"
			}
			out = append(out, input{
				name:   "dvfssim/" + name,
				pinned: "dvfssim/" + name + ".jsonl",
				log:    spanFields.ReplaceAll(simLog(t, c.workload, c.governor, c.platform, idle), nil),
			})
		}
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
