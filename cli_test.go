package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/taskir"
)

// CLI smoke tests: build-and-run each command the way a user would.
// They exercise flag parsing, the experiment dispatcher, and model
// save/load end to end.

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIDvfsbenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runCLI(t, "./cmd/dvfsbench", "-exp", "fig11")
	if !strings.Contains(out, "95th-percentile DVFS switching times") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestCLIDvfsbenchRejectsUnknown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	cmd := exec.Command("go", "run", "./cmd/dvfsbench", "-exp", "fig99")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown experiment") {
		t.Errorf("missing error message:\n%s", out)
	}
}

func TestCLIProfileSaveSimLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	model := t.TempDir() + "/m.json"
	out := runCLI(t, "./cmd/dvfsprofile", "-workload", "sha", "-o", model)
	if !strings.Contains(out, "model written") {
		t.Errorf("profile output:\n%s", out)
	}
	out = runCLI(t, "./cmd/dvfssim", "-workload", "sha", "-model", model, "-jobs", "50")
	if !strings.Contains(out, "governor   prediction") || !strings.Contains(out, "misses") {
		t.Errorf("sim output:\n%s", out)
	}
}

// failCLI runs a command expecting a non-zero exit and returns its
// combined output.
func failCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %v unexpectedly succeeded:\n%s", args, out)
	}
	return string(out)
}

// Every binary must reject an unknown workload name up front, exit
// non-zero, and (for the profiling/simulation tools) print the flag
// usage so the caller sees the valid spellings.
func TestCLIRejectsUnknownWorkloadUpFront(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	tests := []struct {
		name      string
		args      []string
		wantUsage bool
	}{
		{"dvfsprofile", []string{"./cmd/dvfsprofile", "-workload", "nope"}, true},
		{"dvfssim", []string{"./cmd/dvfssim", "-workload", "nope"}, true},
		{"dvfslint", []string{"./cmd/dvfslint", "-workload", "nope"}, false},
		{"dvfsload", []string{"./cmd/dvfsload", "-workload", "nope"}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := failCLI(t, tc.args...)
			if !strings.Contains(out, "unknown benchmark") {
				t.Errorf("missing unknown-benchmark error:\n%s", out)
			}
			if tc.wantUsage && !strings.Contains(out, "-workload") {
				t.Errorf("missing usage text:\n%s", out)
			}
		})
	}
}

// dvfssim failure paths: each is a usage error (exit 2 + usage),
// caught before any simulation runs.
func TestCLIDvfssimRejectsBadGovernorAndPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"bad governor", []string{"-governor", "warp-speed"}, "unknown governor"},
		{"bad platform", []string{"-platform", "quantum"}, "unknown platform"},
		{"two sinks on stdout", []string{"-jobs", "5", "-trace", "-", "-chrome", "-"}, "cannot both write to stdout"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := failCLI(t, append([]string{"./cmd/dvfssim"}, tc.args...)...)
			if !strings.Contains(out, tc.want) || !strings.Contains(out, "-governor") || !strings.Contains(out, "exit status 2") {
				t.Errorf("want %q, the usage text and exit status 2:\n%s", tc.want, out)
			}
		})
	}
}

func TestCLIDvfsdRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := failCLI(t, "./cmd/dvfsd", "-platform", "quantum")
	if !strings.Contains(out, "unknown platform") {
		t.Errorf("bad platform output:\n%s", out)
	}
	out = failCLI(t, "./cmd/dvfsd", "-preload", "nope")
	if !strings.Contains(out, "unknown benchmark") {
		t.Errorf("bad preload output:\n%s", out)
	}
}

func TestCLIDvfsloadFailsWithoutDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	// Port 9 (discard) is never a dvfsd; the health wait must time out
	// and the exit must be non-zero.
	out := failCLI(t, "./cmd/dvfsload", "-addr", "http://127.0.0.1:9", "-workload", "sha", "-wait", "300ms")
	if !strings.Contains(out, "not healthy") {
		t.Errorf("missing health-wait error:\n%s", out)
	}
}

// dvfstrace failure paths: missing input, unreadable input, unknown
// format, and unknown flags are all usage errors (exit 2 + usage).
func TestCLIDvfstraceRejectsBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"missing input", []string{"./cmd/dvfstrace"}, "-input or -follow is required"},
		{"input and follow", []string{"./cmd/dvfstrace", "-input", "x", "-follow", "http://y"}, "mutually exclusive"},
		{"unreadable input", []string{"./cmd/dvfstrace", "-input", "/nonexistent/x.jsonl"}, "no such file"},
		{"unknown format", []string{"./cmd/dvfstrace", "-input", "x", "-format", "xml"}, "unknown format"},
		{"unknown flag", []string{"./cmd/dvfstrace", "-frobnicate"}, "flag provided but not defined"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := failCLI(t, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("missing %q:\n%s", tc.want, out)
			}
			if !strings.Contains(out, "-input") {
				t.Errorf("missing usage text:\n%s", out)
			}
		})
	}
}

// The shared logging flags are validated up front in every binary.
func TestCLIRejectsBadLogFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	for _, tool := range []string{"dvfssim", "dvfsprofile", "dvfsbench", "dvfslint", "dvfsvet", "dvfsload", "dvfsd", "dvfstrace"} {
		t.Run(tool, func(t *testing.T) {
			out := failCLI(t, "./cmd/"+tool, "-log-level", "loud")
			if !strings.Contains(out, "unknown log level") {
				t.Errorf("missing log-level error:\n%s", out)
			}
		})
	}
}

// End-to-end observability round trip: simulate with -trace, then
// analyze the JSONL log with dvfstrace in both output formats.
func TestCLISimTraceIntoDvfstrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	log := t.TempDir() + "/dec.jsonl"
	out := runCLI(t, "./cmd/dvfssim", "-workload", "sha", "-governor", "prediction", "-jobs", "40", "-trace", log)
	if !strings.Contains(out, "decisions  "+log) {
		t.Errorf("sim did not report the decision log:\n%s", out)
	}
	out = runCLI(t, "./cmd/dvfstrace", "-input", log)
	for _, want := range []string{"events      40 (40 completed, 40 with predictions)", "workloads   sha", "level", "residual"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "./cmd/dvfstrace", "-input", log, "-format", "json")
	if !strings.Contains(out, `"events": 40`) || !strings.Contains(out, `"levels"`) {
		t.Errorf("json report:\n%s", out)
	}
}

func TestCLIDvfslintCleanOnSeedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runCLI(t, "./cmd/dvfslint", "-workload", "all")
	if !strings.Contains(out, "dvfslint: ok") {
		t.Errorf("expected clean lint of seed workloads:\n%s", out)
	}
}

// Acceptance check from the issue: a crafted program with an
// undefined-variable read and an uninstrumented loop must make
// dvfslint exit non-zero and name both problems.
func TestCLIDvfslintFlagsCraftedProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	p := &taskir.Program{
		Name:   "crafted",
		Params: []string{"n"},
		Body: []taskir.Stmt{
			// A counter elsewhere marks the program as instrumented...
			&taskir.FeatAdd{FID: 0, Amount: taskir.Max(taskir.Var("n"), taskir.Const(0))},
			// Read of a variable no path defines.
			&taskir.Assign{Dst: "x", Expr: taskir.Var("ghost")},
			// ...which makes this loop — with no adjacent or in-body
			// counter — a coverage gap.
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "y", Expr: taskir.Const(1)},
			}},
		},
	}
	data, err := taskir.MarshalProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	file := t.TempDir() + "/crafted.json"
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/dvfslint", "-file", file)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("dvfslint exited zero on a broken program:\n%s", out)
	}
	for _, want := range []string{"undefined-read", "uninstrumented"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// dvfsreplay failure paths: unknown format/platform, bad tolerances,
// and a replayable-events check on empty input.
func TestCLIDvfsreplayRejectsBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"unknown format", []string{"./cmd/dvfsreplay", "-input", "x", "-format", "xml"}, "unknown format"},
		{"unknown platform", []string{"./cmd/dvfsreplay", "-input", "x", "-platform", "quantum"}, "unknown platform"},
		{"negative last", []string{"./cmd/dvfsreplay", "-input", "x", "-last", "-1"}, "-last must be non-negative"},
		{"bad tolerance", []string{"./cmd/dvfsreplay", "-input", "x", "-max-regress", "0"}, "-max-regress must be positive"},
		{"unreadable input", []string{"./cmd/dvfsreplay", "-input", "/nonexistent/x.jsonl"}, "no such file"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := failCLI(t, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// Full-binary live-telemetry round trip: boot dvfsd on an ephemeral
// port, drive traffic with dvfsload (train + predict through the
// API), tail the SSE stream with dvfstrace -follow, and fetch the
// embedded operations dashboard.
func TestCLIDvfsdLiveStreamAndDash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and a daemon")
	}
	dir := t.TempDir()
	bin := dir + "/dvfsd"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dvfsd").CombinedOutput(); err != nil {
		t.Fatalf("building dvfsd: %v\n%s", err, out)
	}

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()

	// -addr :0 works because dvfsd logs the resolved listener address;
	// keep draining stderr after the match so the daemon never blocks.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "addr="); i >= 0 && strings.Contains(line, "dvfsd listening") {
				addrCh <- strings.Fields(line[i+len("addr="):])[0]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("dvfsd never logged its listen address")
	}

	out := runCLI(t, "./cmd/dvfsload", "-addr", base, "-workload", "sha",
		"-train", "-train-jobs", "80", "-jobs", "30", "-conns", "2")
	if !strings.Contains(out, "errors 0") {
		t.Fatalf("load run saw request errors:\n%s", out)
	}

	// Tail the live stream: -last replays ring backlog, so -follow-max
	// is satisfied deterministically without racing new traffic.
	out = runCLI(t, "./cmd/dvfstrace",
		"-follow", base+"/v1/events", "-last", "20", "-follow-max", "5", "-follow-every", "2")
	for _, want := range []string{"stream ended after 5 events", "workloads   sha", "follow"} {
		if !strings.Contains(out, want) {
			t.Errorf("follow output missing %q:\n%s", want, out)
		}
	}

	// The dashboard serves a self-contained page with live charts.
	resp, err := http.Get(base + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/dash: HTTP %d\n%s", resp.StatusCode, body)
	}
	page := string(body)
	for _, want := range []string{"<svg", "Decision phases", "sha"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "http://") || strings.Contains(page, "<script") {
		t.Errorf("dashboard is not self-contained")
	}
}

// End-to-end replay round trip, including the stdin pipe mode the
// quickstart advertises: dvfssim -trace - | dvfsreplay.
func TestCLISimTraceIntoDvfsreplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	// Pipe mode: -trace - puts the JSONL on stdout, summary on stderr.
	sim := exec.Command("go", "run", "./cmd/dvfssim",
		"-workload", "sha", "-governor", "prediction", "-jobs", "50", "-trace", "-")
	jsonl, err := sim.Output()
	if err != nil {
		t.Fatalf("dvfssim -trace -: %v", err)
	}
	if len(jsonl) == 0 || jsonl[0] != '{' {
		t.Fatalf("stdout is not JSONL:\n%.200s", jsonl)
	}

	dir := t.TempDir()
	bench := dir + "/BENCH_replay.json"
	html := dir + "/report.html"
	replayCmd := exec.Command("go", "run", "./cmd/dvfsreplay",
		"-check", "-json", bench, "-html", html)
	replayCmd.Stdin = bytes.NewReader(jsonl)
	out, err := replayCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dvfsreplay: %v\n%s", err, out)
	}
	for _, want := range []string{
		"sha / prediction", "traced", "oracle", "performance",
		"margin sweep", "energy ordering check passed",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
	page, err := os.ReadFile(html)
	if err != nil || !strings.Contains(string(page), "<svg") {
		t.Errorf("HTML report missing or chartless: %v", err)
	}

	// The bench document round-trips as its own baseline.
	again := exec.Command("go", "run", "./cmd/dvfsreplay", "-baseline", bench)
	again.Stdin = bytes.NewReader(jsonl)
	out, err = again.CombinedOutput()
	if err != nil {
		t.Fatalf("baseline self-compare: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "baseline comparison passed") {
		t.Errorf("missing baseline pass message:\n%s", out)
	}

	// The shared filter flags slice the same log in both tools.
	tr := exec.Command("go", "run", "./cmd/dvfstrace", "-input", "-", "-last", "10")
	tr.Stdin = bytes.NewReader(jsonl)
	out, err = tr.CombinedOutput()
	if err != nil {
		t.Fatalf("dvfstrace -last: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "events      10 ") {
		t.Errorf("filtered report should count 10 events:\n%s", out)
	}
}

// The self-hosted Go analyzers must pass over the repo itself: the
// annotated hot paths and emit paths are the acceptance gate.
func TestCLIDvfsvetCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runCLI(t, "./cmd/dvfsvet", "./...")
	if !strings.Contains(out, "dvfsvet: ok") {
		t.Errorf("expected a clean vet of the module:\n%s", out)
	}
}

// A seeded allocation in a //dvfs:hotpath function must make dvfsvet
// exit non-zero and name the finding.
func TestCLIDvfsvetFlagsSeededBug(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	src := `package bad

// hot is a marked decision path with a seeded allocation.
//
//dvfs:hotpath
func hot(n int) []int {
	return make([]int, n)
}
`
	if err := os.WriteFile(dir+"/bad.go", []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := failCLI(t, "./cmd/dvfsvet", dir)
	for _, want := range []string{"hotpathalloc", "alloc-make", "make allocates", "1 finding(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Both lint tools share the -format json contract: a findings array
// plus counts, and the same exit codes as text mode.
func TestCLIDvfsvetJSONFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runCLI(t, "./cmd/dvfsvet", "-format", "json", "./internal/vet")
	for _, want := range []string{`"findings": []`, `"count": 0`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIDvfslintJSONFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runCLI(t, "./cmd/dvfslint", "-format", "json", "-workload", "ldecode")
	for _, want := range []string{`"findings"`, `"severity": "warn"`, `"errors": 0`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "dvfslint: ok") {
		t.Errorf("json mode must not print the text summary:\n%s", out)
	}
}

// An unknown -format is a usage error (exit 2) for both tools.
func TestCLIRejectsBadFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	for _, tool := range []string{"dvfslint", "dvfsvet"} {
		t.Run(tool, func(t *testing.T) {
			out := failCLI(t, "./cmd/"+tool, "-format", "yaml")
			if !strings.Contains(out, "unknown format") {
				t.Errorf("missing format error:\n%s", out)
			}
		})
	}
}

func TestCLIDvfsvetRejectsBadAnalyzer(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := failCLI(t, "./cmd/dvfsvet", "-analyzers", "speling")
	if !strings.Contains(out, "unknown analyzer") {
		t.Errorf("missing analyzer error:\n%s", out)
	}
}

// Fleet pipeline end to end: simulate a small heterogeneous fleet
// into a binary trace, analyze and convert it with dvfstrace (the
// round trip must be byte-identical), and run the fleet-wide
// counterfactual margin sweep with dvfsreplay. A second fleet run
// checks the determinism contract: same seed, same bytes.
func TestCLIFleetPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	bin := dir + "/fleet.bin"
	summary := dir + "/fleet.json"
	bench := dir + "/BENCH_fleet.json"
	fleetArgs := []string{"./cmd/dvfsfleet", "-devices", "6", "-platforms", "a7,x86",
		"-workload-mix", "sha:1", "-jobs", "8", "-seed", "5", "-progress", "0"}

	out := runCLI(t, append(fleetArgs, "-out", bin, "-summary", summary, "-bench", bench)...)
	for _, want := range []string{"fleet   6 devices, 48 jobs", "device energy J", "platform a7", "platform x86", "trace   48 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet summary missing %q:\n%s", want, out)
		}
	}
	benchDoc, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"devices_per_sec"`, `"binary_bytes_per_event"`, `"jsonl_to_binary_ratio"`} {
		if !strings.Contains(string(benchDoc), want) {
			t.Errorf("bench document missing %q:\n%s", want, benchDoc)
		}
	}

	// Determinism: a second run with the same seed writes identical bytes.
	bin2 := dir + "/fleet2.bin"
	runCLI(t, append(fleetArgs, "-out", bin2)...)
	b1, _ := os.ReadFile(bin)
	b2, _ := os.ReadFile(bin2)
	if !bytes.Equal(b1, b2) {
		t.Error("fleet trace is not deterministic for a fixed seed")
	}

	// dvfstrace reads the binary trace directly and converts it.
	out = runCLI(t, "./cmd/dvfstrace", "-input", bin)
	if !strings.Contains(out, "events      48 ") {
		t.Errorf("dvfstrace on binary trace:\n%s", out)
	}
	jsonl := dir + "/fleet.jsonl"
	runCLI(t, "./cmd/dvfstrace", "-input", bin, "-convert", jsonl)
	back := dir + "/back.bin"
	runCLI(t, "./cmd/dvfstrace", "-input", jsonl, "-convert", back, "-convert-format", "binary")
	b3, _ := os.ReadFile(back)
	if !bytes.Equal(b1, b3) {
		t.Error("binary -> jsonl -> binary conversion is not byte-identical")
	}

	// The -device filter slices one device out of the fleet trace.
	out = runCLI(t, "./cmd/dvfstrace", "-input", bin, "-device", "dev-0000003")
	if !strings.Contains(out, "events      8 ") {
		t.Errorf("-device filter should keep 8 events:\n%s", out)
	}

	// Fleet replay: auto-detected from the device IDs, margin sweep and
	// per-platform breakdown in the report.
	html := dir + "/fleet.html"
	out = runCLI(t, "./cmd/dvfsreplay", "-input", bin, "-html", html)
	for _, want := range []string{"fleet replay  6 devices", "margin", "platform a7"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet replay output missing %q:\n%s", want, out)
		}
	}
	page, err := os.ReadFile(html)
	if err != nil || !strings.Contains(string(page), "Margin sweep") {
		t.Errorf("fleet HTML report missing or sweepless: %v", err)
	}

	// -device drops to the single-device engine on the same trace.
	out = runCLI(t, "./cmd/dvfsreplay", "-input", bin, "-device", "dev-0000003")
	if !strings.Contains(out, "sha / prediction") || strings.Contains(out, "fleet replay") {
		t.Errorf("single-device replay via -device:\n%s", out)
	}
}

// dvfsfleet and the fleet paths of dvfsreplay reject bad usage with
// exit 2 and a usage message.
func TestCLIDvfsfleetRejectsBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"bad devices", []string{"./cmd/dvfsfleet", "-devices", "0"}, "-devices must be positive"},
		{"bad mix", []string{"./cmd/dvfsfleet", "-workload-mix", "sha:zero"}, "workload mix"},
		{"unknown mix workload", []string{"./cmd/dvfsfleet", "-workload-mix", "nope:1"}, "unknown benchmark"},
		{"bad fleet mode", []string{"./cmd/dvfsreplay", "-input", "x", "-fleet", "maybe"}, "unknown -fleet mode"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := failCLI(t, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// -check and -baseline are single-device contracts; a fleet trace
// must be rejected rather than silently mis-analyzed.
// dvfssim names its platform on every event, so dvfsreplay prices an
// x86 or big.LITTLE trace on the platform it ran on without -platform,
// and a -platform that contradicts the events is a usage error (exit
// 2) rather than a silent replay on the wrong tables.
func TestCLIDvfsreplayTakesPlatformFromTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	for _, tc := range []struct{ workload, plat, name string }{
		{"sha", "x86", "x86-i7"},
		{"uzbl", "biglittle", "odroid-xu3-biglittle"},
	} {
		path := dir + "/" + tc.plat + ".jsonl"
		runCLI(t, "./cmd/dvfssim", "-workload", tc.workload, "-platform", tc.plat, "-jobs", "30", "-trace", path)
		out := runCLI(t, "./cmd/dvfsreplay", "-input", path, "-check")
		if !strings.Contains(out, "replay      platform "+tc.name+",") {
			t.Errorf("%s trace did not replay on %s:\n%s", tc.plat, tc.name, out)
		}
	}
	out := failCLI(t, "./cmd/dvfsreplay", "-input", dir+"/x86.jsonl", "-platform", "a7")
	if !strings.Contains(out, "contradicts the trace") || !strings.Contains(out, "exit status 2") {
		t.Errorf("want a usage error for a contradicting -platform:\n%s", out)
	}
}

func TestCLIDvfsreplayChecksAreSingleDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	dir := t.TempDir()
	bin := dir + "/fleet.bin"
	runCLI(t, "./cmd/dvfsfleet", "-devices", "2", "-jobs", "4", "-seed", "3", "-progress", "0", "-out", bin)
	out := failCLI(t, "./cmd/dvfsreplay", "-input", bin, "-check")
	if !strings.Contains(out, "single-device") {
		t.Errorf("missing single-device error:\n%s", out)
	}
}

// The telemetry-history pipeline offline: simulate decisions, replay
// them through the store via dvfstsdb -bench, and hold the bench to
// the acceptance numbers (compression ≥ 8× vs raw 16-byte points,
// zero allocations on the append hot path).
func TestCLIDvfstsdbBenchOnSimTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	log := t.TempDir() + "/dec.jsonl"
	runCLI(t, "./cmd/dvfssim", "-workload", "sha", "-governor", "prediction", "-jobs", "400", "-trace", log)
	out := runCLI(t, "./cmd/dvfstsdb", "-bench", "-trace", log, "-samples", "5000")
	var res struct {
		Source       string  `json:"source"`
		Samples      int64   `json:"samples"`
		Compression  float64 `json:"compression_vs_raw16"`
		AppendNs     float64 `json:"append_ns_per_op"`
		AppendAllocs float64 `json:"append_allocs_per_op"`
		QueryMs      float64 `json:"query_1h_1s_ms"`
		QueryPoints  int     `json:"query_points"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bench output is not JSON: %v\n%s", err, out)
	}
	if res.Source != "trace" || res.Samples == 0 {
		t.Fatalf("bench ingested nothing: %+v", res)
	}
	if res.Compression < 8 {
		t.Errorf("compression %.2fx < 8x", res.Compression)
	}
	if res.AppendAllocs != 0 {
		t.Errorf("append allocated %.4f/op", res.AppendAllocs)
	}
	if res.QueryPoints != 3600 || res.QueryMs <= 0 || res.QueryMs > 100 {
		t.Errorf("1h/1s query: %d points in %.3fms", res.QueryPoints, res.QueryMs)
	}
}

// Crash-recovery acceptance: boot dvfsd with a store dir, drive load,
// SIGKILL it mid-write, then inspect/query/compact the dir offline.
// The recovered store must hold history and survive compaction.
func TestCLIDvfstsdbRecoversKilledDaemonStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and a daemon")
	}
	dir := t.TempDir()
	bin := dir + "/dvfsd"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dvfsd").CombinedOutput(); err != nil {
		t.Fatalf("building dvfsd: %v\n%s", err, out)
	}
	storeDir := dir + "/tsdb"

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-tsdb-scrape", "100ms", "-tsdb-dir", storeDir, "-tsdb-block", "1s")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "addr="); i >= 0 && strings.Contains(line, "dvfsd listening") {
				addrCh <- strings.Fields(line[i+len("addr="):])[0]
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("dvfsd never logged its listen address")
	}

	runCLI(t, "./cmd/dvfsload", "-addr", base, "-workload", "sha",
		"-train", "-train-jobs", "60", "-jobs", "40", "-conns", "2")
	// Let a few 1s blocks seal, then kill without ceremony: only
	// fsynced records may survive, and they must be enough.
	time.Sleep(3500 * time.Millisecond)
	daemon.Process.Kill()
	daemon.Wait()

	out := runCLI(t, "./cmd/dvfstsdb", "-dir", storeDir)
	if !strings.Contains(out, "go_goroutines") || strings.Contains(out, "samples    0") {
		t.Fatalf("recovered store is empty or missing runtime metrics:\n%s", out)
	}

	out = runCLI(t, "./cmd/dvfstsdb", "-dir", storeDir,
		"-query", "dvfsd_requests_total", "-labels", "route=predict", "-agg", "rate", "-step", "1s")
	if !strings.Contains(out, "route=predict") {
		t.Fatalf("query found no request history:\n%s", out)
	}

	out = runCLI(t, "./cmd/dvfstsdb", "-dir", storeDir, "-compact", "-keep", "24h")
	if !strings.Contains(out, "compacted") {
		t.Fatalf("compact failed:\n%s", out)
	}
	// Everything inside the keep horizon survives compaction.
	out = runCLI(t, "./cmd/dvfstsdb", "-dir", storeDir, "-json")
	var insp struct {
		Stats struct {
			Samples int64 `json:"samples"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &insp); err != nil {
		t.Fatalf("inspect -json: %v\n%s", err, out)
	}
	if insp.Stats.Samples == 0 {
		t.Fatalf("compaction emptied the store:\n%s", out)
	}
}

// dvfstsdb usage errors: a missing dir, bad aggregation, and bad
// times are all user errors, not panics.
func TestCLIDvfstsdbRejectsBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := failCLI(t, "./cmd/dvfstsdb", "-dir", "/nonexistent-tsdb-dir")
	if !strings.Contains(out, "nonexistent-tsdb-dir") {
		t.Errorf("missing-dir error:\n%s", out)
	}
	dir := t.TempDir()
	out = failCLI(t, "./cmd/dvfstsdb", "-dir", dir, "-query", "m", "-agg", "median")
	if !strings.Contains(out, "unknown aggregation") {
		t.Errorf("bad agg error:\n%s", out)
	}
	out = failCLI(t, "./cmd/dvfstsdb", "-dir", dir, "-query", "m", "-from", "banana")
	if !strings.Contains(out, "banana") {
		t.Errorf("bad time error:\n%s", out)
	}
}

// TestCLIDvfstraceFollowReconnects tails an SSE server that drops the
// connection every few events: the follower must reconnect with
// Last-Event-ID, resume without double-counting, and report every
// event exactly once.
func TestCLIDvfstraceFollowReconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	const total = 9
	var mu sync.Mutex
	var resumeIDs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resumeIDs = append(resumeIDs, r.Header.Get("Last-Event-ID"))
		id := r.Header.Get("Last-Event-ID")
		mu.Unlock()
		after := uint64(0)
		if id != "" {
			after, _ = strconv.ParseUint(id, 10, 64)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		sent := 0
		for seq := after + 1; seq <= total; seq++ {
			obs.WriteSSE(w, &obs.DecisionEvent{
				Seq: seq, Workload: "sha", Governor: "serve",
				TimeSec: float64(seq) * 0.01, Level: 3,
				Predicted: true, PredictedExecSec: 0.001,
			})
			sent++
			if sent == 3 {
				return // drop mid-stream; the client should come back
			}
		}
	}))
	defer srv.Close()

	out := runCLI(t, "./cmd/dvfstrace",
		"-follow", srv.URL+"/v1/events",
		"-follow-max", "9", "-follow-every", "0",
		"-follow-backoff", "1ms", "-format", "json")
	if !strings.Contains(out, "reconnecting") {
		t.Errorf("no reconnect notice on stderr:\n%s", out)
	}
	if !strings.Contains(out, "stream ended after 9 events") {
		t.Errorf("events dropped or doubled across reconnects:\n%s", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resumeIDs) != 3 || resumeIDs[0] != "" || resumeIDs[1] != "3" || resumeIDs[2] != "6" {
		t.Errorf("Last-Event-ID per connection = %q, want [\"\" 3 6]", resumeIDs)
	}
}

// TestCLIDvfstraceFollowNoRetryExitsOnDrop pins -follow-retries 0: the
// old single-shot behavior stays available.
func TestCLIDvfstraceFollowNoRetryExitsOnDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		w.Header().Set("Content-Type", "text/event-stream")
		obs.WriteSSE(w, &obs.DecisionEvent{Seq: 1, Workload: "sha"})
	}))
	defer srv.Close()
	out := runCLI(t, "./cmd/dvfstrace",
		"-follow", srv.URL+"/v1/events", "-follow-retries", "0", "-follow-every", "0")
	if conns != 1 {
		t.Errorf("connections = %d, want 1 with retries disabled", conns)
	}
	if strings.Contains(out, "reconnecting") {
		t.Errorf("unexpected reconnect with -follow-retries 0:\n%s", out)
	}
}
