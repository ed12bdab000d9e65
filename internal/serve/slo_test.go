package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// ingestBinary uploads events to /v1/fleet/ingest as a binary trace.
func ingestBinary(t *testing.T, base string, evs []obs.DecisionEvent) {
	t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	for i := range evs {
		bw.Emit(&evs[i])
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/fleet/ingest", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
}

// missingOneIn is n completed jobs, alternating between two workloads
// on one platform, of which every k-th (from the first) missed its
// deadline.
func missingOneIn(n, k int) []obs.DecisionEvent {
	evs := make([]obs.DecisionEvent, n)
	for j := range evs {
		wl := "sha"
		if j%2 == 1 {
			wl = "mpeg"
		}
		evs[j] = fleetTestEvent("dev-0", wl, j, j%k == 0, 0.1)
	}
	return evs
}

func getSLO(t *testing.T, base string) SLOResponse {
	t.Helper()
	var sr SLOResponse
	if code := getJSON(t, base+"/debug/slo", &sr); code != http.StatusOK {
		t.Fatalf("debug/slo: HTTP %d", code)
	}
	return sr
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return readAll(t, resp)
}

// TestDebugSLO: /debug/slo serves the tracker fleet ingest feeds, its
// burn rates reach /metrics keyed by SLO key, and the ring-drop
// counter syncs monotonically alongside them.
func TestDebugSLO(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 8})
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Tracer:      tracer,
		Fleet:       obs.NewFleetTracker(obs.FleetConfig{}),
		FleetSLO:    obs.NewSLOTracker(obs.SLOConfig{Target: 0.01, FastWindow: 8, SlowWindow: 32}),
		EnableDebug: true,
	}))
	defer ts.Close()

	// 16 served (one-shot) decisions through an 8-slot ring overwrite 8
	// and feed no SLO key: their jobs run client-side.
	for i := 0; i < 16; i++ {
		tracer.Emit(obs.DecisionEvent{Workload: "ldecode", Job: i})
	}
	ingestBinary(t, ts.URL, missingOneIn(64, 1))

	sr := getSLO(t, ts.URL)
	if sr.Target != 0.01 || len(sr.Workloads) != 4 {
		t.Fatalf("slo response: %+v", sr)
	}
	fleet := sr.Workloads[0]
	if fleet.Workload != obs.FleetKey || fleet.Jobs != 64 || fleet.Misses != 64 || fleet.FastBurn != 100 || fleet.SlowBurn != 100 {
		t.Errorf("fleet status: %+v", fleet)
	}

	mb := getMetrics(t, ts.URL)
	for _, want := range []string{
		`dvfsd_slo_burn_rate{key="fleet",window="fast"} 100`,
		`dvfsd_slo_burn_rate{key="workload:sha",window="slow"} 100`,
		`obs_ring_dropped_total{ring="decisions"} 8`,
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("metrics missing %q:\n%s", want, mb)
		}
	}

	// A second scrape must not double-count the drops (monotone sync).
	if !strings.Contains(getMetrics(t, ts.URL), `obs_ring_dropped_total{ring="decisions"} 8`) {
		t.Error("ring-drop counter moved without new drops")
	}
}

func TestDebugSLODisabled(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg, ServerOptions{EnableDebug: true}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(e.Error, "SLO tracking disabled") {
		t.Errorf("no-slo: HTTP %d, %+v", resp.StatusCode, e)
	}
}

// TestSLOBurnRuleFiresOnIngest drives the whole SLO alert path on a
// fixed clock: ingested jobs feed the fleet SLO tracker, each scrape
// tick exports its burn rates into the telemetry store, and the alert
// engine's builtin slo_burn rule fires on the fleet key once the
// rule's For has elapsed. The tracker itself exports no alert gauge:
// the engine owns the alert. Jobs that all miss burn both windows at
// 100x; a steady 5 % miss rate keeps the fast burn under 10x while
// the slow burn reaches 5x, past the rule's 2x.
func TestSLOBurnRuleFiresOnIngest(t *testing.T) {
	for _, c := range []struct {
		name       string
		jobs, k    int
		fast, slow float64 // the fleet key's burns after ingest
	}{
		{"all_miss", 64, 1, 100, 100},
		{"steady_5pct", 200, 20, 6.0 / 128 / 0.01, 10.0 / 200 / 0.01},
	} {
		t.Run(c.name, func(t *testing.T) {
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
			srv := NewServer(reg, ServerOptions{
				Metrics:     metrics,
				Fleet:       obs.NewFleetTracker(obs.FleetConfig{}),
				FleetSLO:    obs.NewSLOTracker(obs.SLOConfig{Target: 0.01, MaxKeys: 64}),
				History:     store,
				Alerts:      engine,
				EnableDebug: true,
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()

			ingestBinary(t, ts.URL, missingOneIn(c.jobs, c.k))

			var hold time.Duration
			for _, r := range rules {
				if r.Name == "slo_burn" {
					hold = time.Duration(r.For)
				}
			}
			if hold <= 0 {
				t.Fatalf("builtin slo_burn rule missing or without For: %+v", rules)
			}
			sc := tsdb.NewScraper(store, metrics.Registry(), scrape, srv.SyncGauges)
			sc.After = engine.Eval
			t0 := time.Unix(1_700_000_000, 0)
			for at := time.Duration(0); at <= hold+scrape; at += scrape {
				sc.Tick(t0.Add(at))
			}

			var snap alert.Snapshot
			if code := getJSON(t, ts.URL+"/v1/alerts", &snap); code != http.StatusOK {
				t.Fatalf("/v1/alerts: HTTP %d", code)
			}
			firing := false
			for _, a := range snap.Active {
				if a.Rule == "slo_burn" && a.State == alert.StateFiring &&
					a.Series == "dvfsd_slo_burn_rate{key=fleet,window=slow}" {
					firing = true
				}
			}
			if !firing {
				t.Errorf("slo_burn not firing on the fleet key: %+v", snap.Active)
			}

			keys := map[string]bool{}
			for _, st := range getSLO(t, ts.URL).Workloads {
				keys[st.Workload] = true
				if st.Workload == obs.FleetKey && (math.Abs(st.FastBurn-c.fast) > 1e-9 || math.Abs(st.SlowBurn-c.slow) > 1e-9) {
					t.Errorf("fleet burns fast %g slow %g, want %g and %g", st.FastBurn, st.SlowBurn, c.fast, c.slow)
				}
			}
			for _, want := range []string{obs.FleetKey, "platform:odroid-a7", "workload:sha", "workload:mpeg"} {
				if !keys[want] {
					t.Errorf("/debug/slo missing key %q (have %v)", want, keys)
				}
			}

			mb := getMetrics(t, ts.URL)
			if !strings.Contains(mb, `dvfsd_slo_burn_rate{key="fleet",window="slow"}`) {
				t.Errorf("/metrics missing the fleet slow burn rate:\n%s", mb)
			}
			if strings.Contains(mb, "dvfsd_slo_alert") {
				t.Error("/metrics still exports the tracker's own alert gauge")
			}
		})
	}
}
