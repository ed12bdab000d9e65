package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// fleetTestEvent is one completed, device-labeled decision for ingest
// tests. residFrac sets |residual|/predicted.
func fleetTestEvent(dev, workload string, job int, missed bool, residFrac float64) obs.DecisionEvent {
	return obs.DecisionEvent{
		Workload:         workload,
		Platform:         "odroid-a7",
		Device:           dev,
		Job:              job,
		Predicted:        true,
		PredictedExecSec: 0.010,
		ResidualSec:      residFrac * 0.010,
		ActualExecSec:    0.010 * (1 + residFrac),
		FreqKHz:          1_400_000,
		Done:             true,
		Missed:           missed,
	}
}

func newFleetServer(t *testing.T) (*httptest.Server, *obs.FleetTracker) {
	t.Helper()
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ft := obs.NewFleetTracker(obs.FleetConfig{TopK: 5})
	fslo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01, MaxKeys: 32})
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Fleet:       ft,
		FleetSLO:    fslo,
		EnableDebug: true,
	}))
	t.Cleanup(ts.Close)
	return ts, ft
}

// TestFleetIngestBinaryAndDash uploads a binary trace big enough to
// populate the history ring, then checks the ingest ack, the JSON
// snapshot, the dashboard, and the Prometheus gauges — and that the
// dashboard renders deterministically for a quiesced tracker.
func TestFleetIngestBinaryAndDash(t *testing.T) {
	ts, _ := newFleetServer(t)

	// 3 devices × 400 jobs: dev-bad misses 1 in 4 and drifts, the
	// others behave. >1024 completed jobs → ≥2 history samples.
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	for j := 0; j < 400; j++ {
		for _, dev := range []string{"dev-good-1", "dev-good-2", "dev-bad"} {
			missed, resid := false, 0.01
			if dev == "dev-bad" {
				missed, resid = j%4 == 0, 0.6
			}
			e := fleetTestEvent(dev, "mpeg", j, missed, resid)
			bw.Emit(&e)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/fleet/ingest", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ack FleetIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	if ack.Format != "binary" || ack.Events != 1200 || ack.Devices != 3 || ack.Completed != 1200 {
		t.Fatalf("ingest ack = %+v", ack)
	}

	// Machine-readable snapshot.
	resp, err = http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Devices != 3 || snap.Completed != 1200 {
		t.Fatalf("snapshot = devices %d completed %d", snap.Devices, snap.Completed)
	}
	if snap.Outliers+snap.Degraded == 0 {
		t.Fatalf("dev-bad not flagged: %+v", snap)
	}
	if len(snap.History) < 2 {
		t.Fatalf("history has %d points, want ≥ 2", len(snap.History))
	}

	// Dashboard.
	get := func() string {
		t.Helper()
		r, err := http.Get(ts.URL + "/debug/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("dash: HTTP %d", r.StatusCode)
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	body := get()
	for _, want := range []string{
		"<!DOCTYPE html>",
		`<meta http-equiv="refresh" content="5">`,
		"dvfsd fleet",
		"devices", ">3<",
		"Health distribution",
		"Ingest history",
		`class="band"`, "polygon", // residual quantile band
		"polyline", // miss-rate sparkline
		"Worst devices", "dev-bad",
		"Top deadline-missing devices",
		"Fleet SLO burn",
		"fleet", "platform:odroid-a7", "workload:mpeg",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet dashboard missing %q", want)
		}
	}
	for _, forbid := range []string{"src=", "http://", "https://"} {
		if strings.Contains(body, forbid) {
			t.Errorf("fleet dashboard must be self-contained, found %q", forbid)
		}
	}
	if again := get(); body != again {
		t.Error("fleet dashboard not deterministic for an idle tracker")
	}

	// dev-bad must top the worst table with a non-fresh class.
	var worstRow string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "dev-bad") {
			worstRow = line
			break
		}
	}
	if worstRow == "" || !strings.Contains(body, "outlier") && !strings.Contains(body, "degraded") {
		t.Errorf("worst table missing flagged dev-bad row: %q", worstRow)
	}

	// Prometheus gauges ride the shared registry.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`dvfsd_fleet_devices{class="healthy"} 2`,
		"dvfsd_fleet_miss_rate",
		`dvfsd_fleet_residual_frac{q="0.99"}`,
		"dvfsd_fleet_ingested_events_total 1200",
		"dvfsd_fleet_completed_jobs 1200",
		"dvfsd_fleet_worst_score",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFleetIngestJSONL exercises the JSONL sniffing path and the
// midstream-error contract (400 naming the line, prior events kept).
func TestFleetIngestJSONL(t *testing.T) {
	ts, ft := newFleetServer(t)

	var buf bytes.Buffer
	for j := 0; j < 10; j++ {
		e := fleetTestEvent("dev-j", "sha", j, j%2 == 0, 0.1)
		b, _ := json.Marshal(&e)
		buf.Write(b)
		buf.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/ingest", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ack FleetIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Format != "jsonl" || ack.Events != 10 {
		t.Fatalf("ingest ack = %+v", ack)
	}

	// A bad line midstream: 400, but the good prefix stays ingested.
	bad := strings.NewReader(`{"workload":"sha","device":"dev-k","done":true}` + "\n" + "not json\n")
	resp, err = http.Post(ts.URL+"/v1/fleet/ingest", "application/jsonl", bad)
	if err != nil {
		t.Fatal(err)
	}
	eb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad jsonl: HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(string(eb), "line 2") {
		t.Errorf("error should name the bad line: %s", eb)
	}
	if got := ft.Snapshot().Events; got != 11 {
		t.Errorf("events after partial ingest = %d, want 11", got)
	}
	// The cut-short upload's event counts toward the ingest counter too.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "dvfsd_fleet_ingested_events_total 11\n") {
		t.Error("/metrics should count all 11 ingested events in dvfsd_fleet_ingested_events_total")
	}
}

// TestFleetIngestAckMatchesStatus: after every upload, the ack's
// device and completed counts equal GET /v1/fleet's, across binary and
// JSONL bodies, new and repeat devices, unlabelled events (tracked as
// the "-" device), and events that are not completed jobs.
func TestFleetIngestAckMatchesStatus(t *testing.T) {
	ts, _ := newFleetServer(t)
	binary := func(evs []obs.DecisionEvent) *bytes.Buffer {
		var buf bytes.Buffer
		bw := trace.NewBinaryWriter(&buf)
		for i := range evs {
			bw.Emit(&evs[i])
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	jsonl := func(evs []obs.DecisionEvent) *bytes.Buffer {
		var buf bytes.Buffer
		for i := range evs {
			b, _ := json.Marshal(&evs[i])
			buf.Write(b)
			buf.WriteByte('\n')
		}
		return &buf
	}
	jobs := func(n int, devs ...string) []obs.DecisionEvent {
		var evs []obs.DecisionEvent
		for j := 0; j < n; j++ {
			for _, dev := range devs {
				evs = append(evs, fleetTestEvent(dev, "sha", j, j%3 == 0, 0.2))
			}
		}
		return evs
	}
	open := jobs(4, "dev-a", "dev-b")
	for i := range open {
		open[i].Done = false
	}
	for _, up := range []struct {
		name    string
		body    *bytes.Buffer
		events  int
		devices int
	}{
		{"binary new devices", binary(jobs(10, "dev-a", "dev-b")), 20, 2},
		{"jsonl new and repeat", jsonl(jobs(5, "dev-a", "dev-c")), 10, 3},
		{"binary unlabelled", binary(jobs(9, "")), 9, 4},
		{"jsonl not completed", jsonl(open), 8, 4},
		{"binary mixed", binary(jobs(3, "dev-d", "", "dev-b")), 9, 5},
	} {
		resp, err := http.Post(ts.URL+"/v1/fleet/ingest", "application/octet-stream", up.body)
		if err != nil {
			t.Fatal(err)
		}
		var ack FleetIngestResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", up.name, resp.StatusCode, err)
		}
		resp, err = http.Get(ts.URL + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.FleetStatus
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ack.Events != up.events || ack.Devices != up.devices {
			t.Errorf("%s: ack %+v, want %d events over %d devices", up.name, ack, up.events, up.devices)
		}
		if ack.Devices != snap.Devices || ack.Completed != snap.Completed {
			t.Errorf("%s: ack has %d devices, %d completed; GET /v1/fleet has %d, %d",
				up.name, ack.Devices, ack.Completed, snap.Devices, snap.Completed)
		}
	}
}

// TestFleetDisabled: without a FleetTracker the routes don't exist.
func TestFleetDisabled(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg, ServerOptions{EnableDebug: true}))
	defer ts.Close()

	for _, req := range []struct{ method, path string }{
		{"POST", "/v1/fleet/ingest"},
		{"GET", "/v1/fleet"},
		{"GET", "/debug/fleet"},
	} {
		r, _ := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(""))
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

// TestFleetDashEmpty: the page renders (with a pointer to ingest)
// before any trace arrives.
func TestFleetDashEmpty(t *testing.T) {
	ts, _ := newFleetServer(t)
	resp, err := http.Get(ts.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(string(b), "/v1/fleet/ingest") {
		t.Error("empty dashboard should point at the ingest endpoint")
	}
}

// TestFleetIngestBodyLimit: ingest takes its own (large) body limit,
// and MaxIngestBytes is enforceable when configured small.
func TestFleetIngestBodyLimit(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ft := obs.NewFleetTracker(obs.FleetConfig{})
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Fleet:          ft,
		MaxIngestBytes: 64, // absurdly small, to trip the limit
	}))
	defer ts.Close()

	var buf bytes.Buffer
	for j := 0; j < 100; j++ {
		e := fleetTestEvent("dev", "sha", j, false, 0.1)
		b, _ := json.Marshal(&e)
		buf.Write(b)
		buf.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/ingest", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized ingest: HTTP %d, want 400", resp.StatusCode)
	}
	// The 64-byte cap cuts line 1 mid-JSON, so nothing was ingested.
	if got := ft.Snapshot().Events; got != 0 {
		t.Errorf("events after capped ingest = %d, want 0", got)
	}
}
