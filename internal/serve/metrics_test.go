package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/platform"
)

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest("predict", 200, 0.002)
	m.ObserveRequest("predict", 200, 0.004)
	m.ObserveRequest("predict", 400, 0.001)
	m.ObserveRequest("models_put", 200, 1.5)
	m.ObserveBuild(1.5, nil)
	m.ObserveDecision("ldecode", 3)
	m.ObserveDecision("ldecode", 3)
	m.ObserveDecision("ldecode", 12)
	m.ObserveShed()
	m.SetModelsReady(2)
	m.SetQueueDepth(3)
	m.SetModelAge("ldecode", 12.5)

	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`dvfsd_requests_total{route="models_put",code="200"} 1`,
		`dvfsd_requests_total{route="predict",code="200"} 2`,
		`dvfsd_requests_total{route="predict",code="400"} 1`,
		`dvfsd_request_duration_seconds_bucket{route="predict",le="0.0025"} 2`,
		`dvfsd_request_duration_seconds_bucket{route="predict",le="+Inf"} 3`,
		`dvfsd_request_duration_seconds_count{route="predict"} 3`,
		`dvfsd_build_duration_seconds_count 1`,
		`dvfsd_build_failures_total 0`,
		`dvfsd_decisions_total{model="ldecode",level="12"} 1`,
		`dvfsd_decisions_total{model="ldecode",level="3"} 2`,
		`dvfsd_shed_total 1`,
		`dvfsd_inflight_requests 0`,
		`dvfsd_models_ready 2`,
		`dvfsd_build_queue_depth 3`,
		`dvfsd_model_age_seconds{model="ldecode"} 12.5`,
		`# TYPE dvfsd_requests_total counter`,
		`# TYPE dvfsd_request_duration_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if got := m.RequestCount("predict"); got != 3 {
		t.Errorf("RequestCount(predict) = %d, want 3", got)
	}
}

// TestEnergyJoulesCounterEqualsMeter: dvfsd_energy_joules_total is
// each stream's running total raised into the counter, so after any
// number of syncs it equals the meter's TotalJ exactly, not up to the
// rounding a sum of per-sync deltas would carry.
func TestEnergyJoulesCounterEqualsMeter(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	meter := alert.NewEnergyMeter(alert.EnergyConfig{Platform: platform.ODROIDXU3A7()})
	metrics := NewMetrics()
	srv := NewServer(reg, ServerOptions{
		Metrics: metrics,
		Fleet:   obs.NewFleetTracker(obs.FleetConfig{}),
		Energy:  meter,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Each upload at least doubles a stream's total, so a sum of
	// per-sync deltas (new - seen) is no longer exact.
	job := 0
	for up, n := 0, 1; up < 8; up, n = up+1, 3*n {
		var evs []obs.DecisionEvent
		for j := 0; j < n; j++ {
			e := fleetTestEvent(fmt.Sprintf("dev-%d", j%2), "sha", job, false, 0.01*float64(j%7))
			e.Platform, e.TimeSec = "a7", 0.05*float64(job)
			evs = append(evs, e)
			job++
		}
		ingestBinary(t, ts.URL, evs)
		srv.SyncGauges()
	}
	joules := metrics.Registry().CounterVec("dvfsd_energy_joules_total", "", "workload", "device")
	streams := meter.Snapshot()
	if len(streams) != 2 {
		t.Fatalf("meter has %d streams, want 2", len(streams))
	}
	for _, st := range streams {
		if got := joules.With(st.Workload, st.Device).Value(); got != st.TotalJ {
			t.Errorf("%s/%s: counter %v J, meter TotalJ %v J", st.Workload, st.Device, got, st.TotalJ)
		}
	}
}

// TestEnergyJobsCountOneShotsOnce: the meter's Jobs already counts each
// one-shot decision, so ten one-shot predictions read ten jobs on
// /metrics and in /debug/dash's energy table, not twenty.
func TestEnergyJobsCountOneShotsOnce(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	meter := alert.NewEnergyMeter(alert.EnergyConfig{Platform: platform.ODROIDXU3A7()})
	metrics := NewMetrics()
	srv := NewServer(reg, ServerOptions{Metrics: metrics, Energy: meter, EnableDebug: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 10; i++ {
		meter.Emit(&obs.DecisionEvent{Workload: "sha", Predicted: true, PredictedExecSec: 0.02, Level: i % 3})
	}
	srv.SyncGauges()
	jobs := metrics.Registry().CounterVec("dvfsd_energy_jobs_total", "", "workload", "device")
	if got := jobs.With("sha", "").Value(); got != 10 {
		t.Errorf(`dvfsd_energy_jobs_total{workload="sha",device=""} = %v, want 10`, got)
	}
	resp, err := http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if row := `<tr><td>sha</td><td></td><td class="num">10</td>`; !strings.Contains(string(body), row) {
		t.Errorf("dash energy table lacks %q", row)
	}
}
