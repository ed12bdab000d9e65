package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/taskir"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// CLI tests: build-and-run each command the way a user would. They
// exercise flag parsing, the experiment dispatcher, model save/load,
// the trace, replay and fleet pipelines and the daemon end to end.

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
	// Every served decision carries its span ledger; there is no
	// sampling flag.
	out = failCLI(t, "./cmd/dvfsd", "-span-every", "1")
	if !strings.Contains(out, "flag provided but not defined: -span-every") || !strings.Contains(out, "-slo-target") || !strings.Contains(out, "exit status 2") {
		t.Errorf("want the undefined-flag error, the usage text and exit status 2:\n%s", out)
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

// dvfsd is a daemon started by startDvfsd.
type dvfsd struct {
	URL    string // http://127.0.0.1:<port>
	cmd    *exec.Cmd
	log    strings.Builder // stderr; read it only after logEOF
	logEOF chan struct{}   // closed once stderr is drained
}

// startDvfsd builds dvfsd into the test's temp dir and starts it on an
// ephemeral port with args. The daemon is killed at cleanup unless
// the test stops it first.
func startDvfsd(t *testing.T, args ...string) *dvfsd {
	t.Helper()
	bin := t.TempDir() + "/dvfsd"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dvfsd").CombinedOutput(); err != nil {
		t.Fatalf("building dvfsd: %v\n%s", err, out)
	}
	d := &dvfsd{
		cmd:    exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		logEOF: make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.stop(syscall.SIGKILL) })

	// -addr :0 works because dvfsd logs the resolved listener address;
	// keep draining stderr after the match so the daemon never blocks.
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logEOF)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log.WriteString(line + "\n")
			if i := strings.Index(line, "addr="); i >= 0 && strings.Contains(line, "dvfsd listening") {
				addrCh <- "http://" + strings.Fields(line[i+len("addr="):])[0]
			}
		}
	}()
	select {
	case d.URL = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("dvfsd never logged its listen address")
	}
	return d
}

// stop signals the daemon, waits for it to exit and returns its log.
// Stopping an exited daemon only returns the log.
func (d *dvfsd) stop(sig os.Signal) string {
	d.cmd.Process.Signal(sig)
	<-d.logEOF
	d.cmd.Wait()
	return d.log.String()
}

// httpGet fetches url and fails the test unless it answers 200.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

func httpGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(httpGet(t, url)), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// ingest POSTs a decision trace to dvfsd's fleet ingest and returns
// the ack.
func ingest(t *testing.T, base string, trace []byte) serve.FleetIngestResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/fleet/ingest", "application/octet-stream", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack serve.FleetIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d, %v", resp.StatusCode, err)
	}
	return ack
}

// waitFor polls cond every 100ms and fails the test after 20s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Full-binary live-telemetry round trip: boot dvfsd on an ephemeral
// port, drive traffic with dvfsload (train + predict through the
// API, with its JSON report), tail the SSE stream with dvfstrace
// -follow, and fetch the embedded operations dashboard.
func TestCLIDvfsdLiveStreamAndDash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and a daemon")
	}
	d := startDvfsd(t)
	base := d.URL

	report := t.TempDir() + "/BENCH_serve.json"
	out := runCLI(t, "./cmd/dvfsload", "-addr", base, "-workload", "sha",
		"-train", "-train-jobs", "80", "-jobs", "30", "-conns", "2", "-json", report)
	if !strings.Contains(out, "errors 0") {
		t.Fatalf("load run saw request errors:\n%s", out)
	}
	var rep serve.Report
	readJSON(t, report, &rep)
	if rep.Requests != 30 || rep.Errors != 0 || rep.Host.NProc == 0 || rep.Host.GOMAXPROCS == 0 || rep.Host.Go == "" {
		t.Errorf("load report %+v: want 30 requests, 0 errors and the host block", rep)
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
	page := httpGet(t, base+"/debug/dash")
	for _, want := range []string{"<svg", "Decision phases", "sha"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "http://") || strings.Contains(page, "<script") {
		t.Errorf("dashboard is not self-contained")
	}
}

// The alert engine on the real binary: dvfsd wires -tsdb-scrape,
// -energy-budget, -incident-log and its logger into it. Under-predicted
// fleet events fire model_stale and healthy ones resolve it; the API,
// dashboard, metrics, journal and log all record the lifecycle.
func TestCLIDvfsdAlertLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and a daemon")
	}
	journal := t.TempDir() + "/incidents.jsonl"
	d := startDvfsd(t, "-tsdb-scrape", "100ms", "-energy-budget", "0.001", "-incident-log", journal)

	// 120 jobs that ran 50 ms against a 40 ms prediction, then 420 on
	// time; the first batch goes in as a binary trace, the second as
	// JSONL.
	event := func(job int, actual, resid float64) *obs.DecisionEvent {
		return &obs.DecisionEvent{
			Seq: uint64(job + 1), Job: job, TimeSec: 0.1 * float64(job),
			Workload: "sha", Device: "d0", Platform: "a7",
			Predicted: true, Level: 2, FromLevel: 2,
			PredictedExecSec: 0.04, PredictorSec: 0.001,
			Done: true, ActualExecSec: actual, ResidualSec: resid,
		}
	}
	var bad, good bytes.Buffer
	bw := trace.NewBinaryWriter(&bad)
	for job := 0; job < 120; job++ {
		bw.Emit(event(job, 0.05, 0.01))
	}
	jw := obs.NewJSONLSink(&good)
	for job := 120; job < 540; job++ {
		jw.Emit(event(job, 0.04, -0.001))
	}
	if err := errors.Join(bw.Close(), jw.Close()); err != nil {
		t.Fatal(err)
	}

	ack := ingest(t, d.URL, bad.Bytes())
	var fleet obs.FleetStatus
	httpGetJSON(t, d.URL+"/v1/fleet", &fleet)
	if ack.Format != "binary" || ack.Devices != 1 || ack.Events != 120 ||
		ack.Devices != fleet.Devices || uint64(ack.Events) != fleet.Events {
		t.Fatalf("ingest ack %+v disagrees with GET /v1/fleet (%d devices, %d events)", ack, fleet.Devices, fleet.Events)
	}

	alerts := func() (s alert.Snapshot) {
		httpGetJSON(t, d.URL+"/v1/alerts", &s)
		return s
	}
	staleFiring := func(s alert.Snapshot) bool {
		return slices.ContainsFunc(s.Active, func(a alert.ActiveAlert) bool {
			return a.Rule == "model_stale" && a.State == alert.StateFiring
		})
	}
	staleIncident := func(s alert.Snapshot, open bool) bool {
		return slices.ContainsFunc(s.Incidents, func(in alert.Incident) bool {
			return in.Rule == "model_stale" && (in.EndMs == 0) == open
		})
	}
	waitFor(t, "model_stale to fire", func() bool { return staleFiring(alerts()) })
	if s := alerts(); !staleIncident(s, true) ||
		!slices.ContainsFunc(s.Rules, func(r alert.RuleStatus) bool { return r.Name == "energy_budget_burn" }) {
		t.Errorf("want an open model_stale incident and the energy_budget_burn rule: %+v", s)
	}
	if page := httpGet(t, d.URL+"/debug/dash"); !strings.Contains(page, "model_stale") || !strings.Contains(page, "Incidents") {
		t.Error("/debug/dash is missing the incident timeline")
	}
	metrics := httpGet(t, d.URL+"/metrics")
	for _, name := range []string{"dvfsd_alerts_firing", "dvfsd_energy_joules_total", "dvfsd_model_under_rate"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	waitFor(t, "a firing span on the history charts", func() bool {
		return strings.Contains(httpGet(t, d.URL+"/debug/dash?window=15m"), `class="firing"`)
	})

	if ack := ingest(t, d.URL, good.Bytes()); ack.Format != "jsonl" || ack.Events != 420 {
		t.Fatalf("healthy ingest ack %+v", ack)
	}
	waitFor(t, "model_stale to resolve", func() bool {
		s := alerts()
		return !staleFiring(s) && staleIncident(s, false)
	})

	log := d.stop(syscall.SIGTERM)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"to":"firing"`) || !strings.Contains(string(data), `"to":"resolved"`) {
		t.Errorf("incident journal is missing a transition:\n%s", data)
	}
	// The engine logs each transition once; the drift monitor logs none.
	var stale []string
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, "rule=model_stale") {
			stale = append(stale, line)
		}
	}
	if len(stale) != 2 || !strings.Contains(stale[0], `msg="ALERT firing"`) || !strings.Contains(stale[1], `msg="ALERT resolved"`) ||
		strings.Contains(log, "prediction model") {
		t.Errorf("want one firing and one resolved model_stale record and none from the drift monitor:\n%s", log)
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
	// The binary trace stays at least 5x smaller than its JSONL.
	var benchDoc struct {
		DevicesPerSec  float64 `json:"devices_per_sec"`
		BinaryPerEvent float64 `json:"binary_bytes_per_event"`
		Ratio          float64 `json:"jsonl_to_binary_ratio"`
	}
	readJSON(t, bench, &benchDoc)
	if benchDoc.DevicesPerSec <= 0 || benchDoc.BinaryPerEvent <= 0 || benchDoc.Ratio < 5 {
		t.Errorf("bench document %+v: want throughput, bytes/event and a JSONL/binary ratio >= 5", benchDoc)
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

// The fleet scale criterion: 100k devices run aggregate-only.
func TestCLIDvfsfleet100kDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out := runCLI(t, "./cmd/dvfsfleet", "-devices", "100000", "-platforms", "a7,x86",
		"-workload-mix", "sha:3,rijndael:1", "-seed", "42", "-progress", "4")
	if !strings.Contains(out, "fleet   100000 devices, 2000000 jobs") {
		t.Errorf("100k-device run:\n%s", out)
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
		// dvfstrace -by-device N prints the same health roll-up.
		{"removed topk", []string{"./cmd/dvfsfleet", "-topk", "5"}, "flag provided but not defined: -topk"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := failCLI(t, tc.args...)
			if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of") || !strings.Contains(out, "exit status 2") {
				t.Errorf("want %q, the usage text and exit status 2:\n%s", tc.want, out)
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
		{"sha", "a7", "odroid-xu3-a7"},
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
// query the live history, SIGKILL it mid-write, then
// inspect/query/compact the dir offline. The recovered store must hold
// history and survive compaction.
func TestCLIDvfstsdbRecoversKilledDaemonStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and a daemon")
	}
	storeDir := t.TempDir() + "/tsdb"
	d := startDvfsd(t, "-tsdb-scrape", "100ms", "-tsdb-dir", storeDir, "-tsdb-block", "1s")
	base := d.URL

	runCLI(t, "./cmd/dvfsload", "-addr", base, "-workload", "sha",
		"-train", "-train-jobs", "60", "-jobs", "40", "-conns", "2")
	// Let a few 1s blocks seal. The live store answers range queries
	// and charts the dashboard's history window.
	time.Sleep(3500 * time.Millisecond)
	var q serve.QueryResponse
	httpGetJSON(t, base+"/v1/query?metric=dvfsd_requests_total&from=-5m", &q)
	if !slices.ContainsFunc(q.Series, func(sr tsdb.SeriesResult) bool { return len(sr.Points) > 0 }) {
		t.Errorf("/v1/query returned no history: %+v", q)
	}
	if page := httpGet(t, base+"/debug/dash?window=15m"); !strings.Contains(page, "tschart") {
		t.Error("/debug/dash?window=15m rendered no history chart")
	}
	// Kill without ceremony: only fsynced records may survive, and
	// they must be enough.
	d.stop(syscall.SIGKILL)

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
