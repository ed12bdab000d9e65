package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden digest file from this run")

// goldenPath holds one "<sha256>  <name>" line per pinned output,
// sorted by name (the sha256sum layout).
const goldenPath = "../../testdata/golden/decision-logs.sha256"

// spanFields matches the two wall-clock fields of an encoded decision
// event: the span ledger times the host's own decision phases, so it
// differs from run to run while every other byte is a function of the
// flags. The normalization rule is to delete both fields, with their
// leading comma, before hashing; nothing else is rewritten. The spans
// array holds only flat objects, so it ends at its first ']'.
var spanFields = regexp.MustCompile(`,"spans":\[[^\]]*\]|,"span_total_sec":[^,}]*`)

// TestGolden pins, by SHA-256 digest, the decision logs dvfssim writes
// and the binary traces dvfsfleet writes for the configurations below.
// A change that moves any of them on purpose regenerates the digests
// with `go test ./cmd/dvfssim -run TestGolden -update` (or `make
// golden UPDATE=1`) in the same diff, so review sees which outputs
// moved.
func TestGolden(t *testing.T) {
	got := map[string]string{}
	simLogs(t, got)
	fleetTraces(t, got)
	if *update {
		writeDigests(t, got)
		return
	}
	want := readDigests(t)
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

// simLogs runs dvfssim's run() in process on eight workload/governor/
// platform configurations, each with and without -idle, writing the
// JSONL and Chrome logs, and records their normalized digests.
func simLogs(t *testing.T, got map[string]string) {
	// run() prints its human summary to stdout; keep test output quiet.
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()

	dir := t.TempDir()
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
			jsonl := filepath.Join(dir, name+".jsonl")
			chrome := filepath.Join(dir, name+".chrome.json")
			if err := run(c.workload, c.governor, 0, 0, 1, idle, "", "", jsonl, chrome, "", c.platform); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, path := range []string{jsonl, chrome} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got["dvfssim/"+filepath.Base(path)] = digest(spanFields.ReplaceAll(data, nil))
			}
		}
	}
}

// fleetTraces writes the binary traces `dvfsfleet -out` writes for two
// fleets, at 1, 2 and 8 workers, and records their digests. Fleet traces
// carry no spans, so they are hashed as written.
func fleetTraces(t *testing.T, got map[string]string) {
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
		for _, workers := range []int{1, 2, 8} {
			var buf bytes.Buffer
			bw := trace.NewBinaryWriter(&buf)
			_, err := fleet.Run(fleet.Config{
				Devices:   f.devices,
				Platforms: strings.Split(f.platforms, ","),
				Mix:       mix,
				Governor:  f.governor,
				Jobs:      f.jobs,
				Seed:      f.seed,
				Workers:   workers,
				Sink:      bw,
			})
			if err == nil {
				err = bw.Close()
			}
			if err != nil {
				t.Fatalf("fleet %s: %v", f.name, err)
			}
			got[fmt.Sprintf("dvfsfleet/%s-w%d.bin", f.name, workers)] = digest(buf.Bytes())
		}
	}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func readDigests(t *testing.T) map[string]string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
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
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
