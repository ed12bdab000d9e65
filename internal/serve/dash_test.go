package serve

import (
	"fmt"
	"html"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

func getDash(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dash: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// dashSection is the part of a dashboard body from the section titled
// from up to the section titled to ("" = the end of the page).
func dashSection(t *testing.T, body, from, to string) string {
	t.Helper()
	i := strings.Index(body, "<h2>"+from)
	if i < 0 {
		t.Fatalf("dashboard has no %q section", from)
	}
	if to == "" {
		return body[i:]
	}
	j := strings.Index(body[i:], "<h2>"+to)
	if j < 0 {
		t.Fatalf("dashboard has no %q section after %q", to, from)
	}
	return body[i : i+j]
}

// hasRow reports whether one table row of body holds every cell.
func hasRow(body string, cells ...string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "<tr><td") {
			continue
		}
		all := true
		for _, c := range cells {
			if !strings.Contains(line, ">"+html.EscapeString(c)+"</td>") {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// TestDashRenders drives the dashboard from synthetic one-shot ring
// events (what served predictions emit) and an ingest-fed drift
// monitor: it must be a complete self-contained HTML document with
// sparklines, the phase table, level occupancy, the drift section, and
// a meta-refresh — and reference no external asset or script.
func TestDashRenders(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	drift := obs.NewDriftMonitor(obs.DriftConfig{})
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 128})
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Tracer:      tracer,
		Drift:       drift,
		Stream:      obs.NewBroadcaster(obs.BroadcasterOptions{}),
		EnableDebug: true,
	}))
	defer ts.Close()

	for i := 0; i < 20; i++ {
		tracer.Emit(obs.DecisionEvent{
			Workload: "sha", Governor: "serve", Job: i,
			TimeSec: float64(i) * 0.05, Predicted: true,
			PredictedExecSec: 0.020, EffBudgetSec: 0.049, Level: i % 4,
			Spans: []obs.Span{
				{Name: obs.PhaseServe, StartSec: 0, DurSec: 0.001},
				{Name: obs.PhasePredict, Depth: 1, StartSec: 0.0002, DurSec: 0.0004},
			},
			SpanTotalSec: 0.001,
		})
		drift.Observe("fleet:sha", 0.001)
	}

	body := getDash(t, ts)
	for _, want := range []string{
		"<!DOCTYPE html>",
		`<meta http-equiv="refresh" content="5">`,
		"dvfsd operations",
		"decisions traced", ">20<",
		"stream subscribers",
		"<svg", "polyline", // sparklines
		"decision time",
		"Decision phases", obs.PhaseServe, obs.PhasePredict,
		"Level occupancy",
		"sha",
		"Prediction drift", "fleet:sha", "under-predictions (model_stale &gt; 3.0%)",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard must be self-contained, found %q", banned)
		}
	}
}

// TestDashEmptyAndDisabled: with no traced decisions the page still
// renders (with a pointer at dvfsload), and without EnableDebug the
// route does not exist.
func TestDashEmptyAndDisabled(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Tracer: obs.NewTracer(obs.TracerOptions{RingSize: 8}), EnableDebug: true,
	}))
	defer ts.Close()
	body := getDash(t, ts)
	if !strings.Contains(body, "No decisions in the trace ring yet") {
		t.Errorf("empty dashboard missing hint:\n%s", body)
	}

	ts2 := httptest.NewServer(NewServer(reg, ServerOptions{}))
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("dash without debug: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestDashAgreesWithAPI builds one server state — traced one-shot
// decisions, an ingested fleet trace with misses and under-predicted
// residuals, and builtin rules firing on it through the telemetry
// store and alert engine — then decodes every JSON endpoint the page
// renders and checks /debug/dash shows each item they serve. The
// pages it replaced are gone.
func TestDashAgreesWithAPI(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	store, err := tsdb.Open(tsdb.Options{Retention: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const scrape = time.Second
	rules := alert.BuiltinRules(alert.BuiltinOptions{Scrape: scrape})
	engine, err := alert.New(alert.Config{Querier: store, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	metrics := NewMetrics()
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 64})
	srv := NewServer(reg, ServerOptions{
		Metrics:     metrics,
		Tracer:      tracer,
		Fleet:       obs.NewFleetTracker(obs.FleetConfig{TopK: 5}),
		FleetSLO:    obs.NewSLOTracker(obs.SLOConfig{Target: 0.01, MaxKeys: 32}),
		Drift:       obs.NewDriftMonitor(obs.DriftConfig{}),
		History:     store,
		Alerts:      engine,
		EnableDebug: true,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 12; i++ {
		tracer.Emit(obs.DecisionEvent{
			Workload: []string{"sha", "ldecode"}[i%2], Governor: "serve",
			Predicted: true, PredictedExecSec: 0.02, Level: i % 3,
		})
	}
	// Six devices, two of them missing often; every residual is
	// positive (under-predicted), so model_stale fires beside slo_burn.
	var evs []obs.DecisionEvent
	for j := 0; j < 200; j++ {
		for d := 0; d < 6; d++ {
			missed := d < 2 && j%(3+d) == 0
			evs = append(evs, fleetTestEvent(fmt.Sprintf("dev-%d", d), "mpeg", j, missed, 0.1+0.1*float64(d)))
		}
	}
	ingestBinary(t, ts.URL, evs)
	var hold time.Duration
	for _, r := range rules {
		hold = max(hold, time.Duration(r.For))
	}
	sc := tsdb.NewScraper(store, metrics.Registry(), scrape, srv.SyncGauges)
	sc.After = engine.Eval
	t0 := time.Unix(1_700_000_000, 0)
	for at := time.Duration(0); at <= hold+scrape; at += scrape {
		sc.Tick(t0.Add(at))
	}

	var decisions []obs.DecisionEvent
	var fleet obs.FleetStatus
	var slo SLOResponse
	var alerts alert.Snapshot
	for url, out := range map[string]any{
		"/debug/decisions": &decisions, "/v1/fleet": &fleet,
		"/debug/slo": &slo, "/v1/alerts": &alerts,
	} {
		if code := getJSON(t, ts.URL+url, out); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", url, code)
		}
	}
	if len(decisions) == 0 || len(fleet.Worst) == 0 || len(fleet.TopMiss) == 0 ||
		len(slo.Workloads) == 0 || len(alerts.Rules) == 0 || len(alerts.Active) == 0 ||
		len(alerts.Incidents) == 0 {
		t.Fatalf("state too thin to compare: %d decisions, fleet %+v, slo %+v, alerts %+v",
			len(decisions), fleet, slo, alerts)
	}

	body := getDash(t, ts)
	if want := fmt.Sprintf("Rolling window (last %d decisions)", len(decisions)); !strings.Contains(body, want) {
		t.Errorf("dashboard missing %q", want)
	}
	for _, e := range decisions {
		if !strings.Contains(body, e.Workload) {
			t.Errorf("dashboard missing decision workload %q", e.Workload)
		}
	}
	for _, d := range fleet.Worst {
		if !hasRow(body, d.Device, d.Platform, d.Workload, fmt.Sprint(d.Jobs), fmt.Sprintf("%.3f", d.Score), d.Class) {
			t.Errorf("dashboard missing worst device %+v", d)
		}
	}
	for _, d := range fleet.TopMiss {
		if !hasRow(body, d.Device, fmt.Sprint(d.Jobs), fmt.Sprint(d.Misses)) {
			t.Errorf("dashboard missing top-miss device %+v", d)
		}
	}
	for _, st := range slo.Workloads {
		if !hasRow(body, st.Workload, fmt.Sprint(st.Jobs), fmt.Sprint(st.Misses)) {
			t.Errorf("dashboard missing SLO key %+v", st)
		}
	}
	for _, r := range alerts.Rules {
		if !hasRow(body, r.Name, string(r.Kind), r.Metric, string(r.State)) {
			t.Errorf("dashboard missing rule %+v", r)
		}
	}
	for _, a := range alerts.Active {
		if !hasRow(body, a.Rule, a.Series, string(a.State)) {
			t.Errorf("dashboard missing active alert %+v", a)
		}
	}
	for _, inc := range alerts.Incidents {
		if !hasRow(body, inc.Rule, inc.Series, inc.Summary) {
			t.Errorf("dashboard missing incident %+v", inc)
		}
	}

	for _, path := range []string{"/debug/fleet", "/debug/alerts"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}
