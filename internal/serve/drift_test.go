package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// driftJobs is n completed sha jobs on one device, numbered from
// first, whose residual is residFrac of the prediction (positive =
// under-predicted).
func driftJobs(first, n int, residFrac float64) []obs.DecisionEvent {
	evs := make([]obs.DecisionEvent, n)
	for j := range evs {
		evs[j] = fleetTestEvent("dev-0", "sha", first+j, false, residFrac)
	}
	return evs
}

// TestModelStaleRuleFiresOnIngest drives the whole drift alert path on
// a fixed clock: ingested residuals feed the drift monitor, each scrape
// tick exports its under-prediction rates into the telemetry store, and
// the alert engine's builtin model_stale rule fires once the rule's For
// has elapsed, then resolves after healthy jobs refill the window. The
// monitor decides nothing itself: the engine owns the alert, and
// /debug/dash shows the monitor's rates.
func TestModelStaleRuleFiresOnIngest(t *testing.T) {
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
		Drift:       obs.NewDriftMonitor(obs.DriftConfig{}),
		History:     store,
		Alerts:      engine,
		EnableDebug: true,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var hold time.Duration
	for _, r := range rules {
		if r.Name == "model_stale" {
			hold = time.Duration(r.For)
		}
	}
	if hold <= 0 {
		t.Fatalf("builtin model_stale rule missing or without For: %+v", rules)
	}
	sc := tsdb.NewScraper(store, metrics.Registry(), scrape, srv.SyncGauges)
	sc.After = engine.Eval
	t0 := time.Unix(1_700_000_000, 0)
	var now time.Duration
	tickPast := func(d time.Duration) {
		for end := now + d; now <= end; now += scrape {
			sc.Tick(t0.Add(now))
		}
	}
	staleOn := func() (firing bool, resolved bool) {
		var snap alert.Snapshot
		if code := getJSON(t, ts.URL+"/v1/alerts", &snap); code != http.StatusOK {
			t.Fatalf("/v1/alerts: HTTP %d", code)
		}
		const series = "dvfsd_model_under_rate{workload=fleet:sha}"
		for _, a := range snap.Active {
			if a.Rule == "model_stale" && a.Series == series && a.State == alert.StateFiring {
				firing = true
			}
		}
		for _, inc := range snap.Incidents {
			if inc.Rule == "model_stale" && inc.Series == series && inc.EndMs != 0 {
				resolved = true
			}
		}
		return firing, resolved
	}

	// 49 residuals are too few to judge a model by: no series yet.
	ingestBinary(t, ts.URL, driftJobs(0, 49, 0.5))
	if mb := getMetrics(t, ts.URL); strings.Contains(mb, "dvfsd_model_under_rate{") {
		t.Fatalf("under rate exported from 49 residuals:\n%s", mb)
	}

	// 64 under-predicted jobs: rate 1, far above DriftMaxUnderRate.
	ingestBinary(t, ts.URL, driftJobs(49, 15, 0.5))
	tickPast(hold + scrape)
	if firing, _ := staleOn(); !firing {
		t.Fatalf("model_stale not firing on fleet:sha: %+v", engine.Snapshot().Active)
	}
	// The dashboard's drift table needs no served decisions in the
	// ring: ingest alone feeds the monitor.
	if body := getDash(t, ts); !strings.Contains(body, "Prediction drift") || !strings.Contains(body, "fleet:sha") {
		t.Error("/debug/dash shows no drift table for ingested residuals")
	}

	// A window of healthy jobs brings the rate to 0: the alert resolves.
	ingestBinary(t, ts.URL, driftJobs(64, 256, -0.1))
	tickPast(scrape)
	if firing, resolved := staleOn(); firing || !resolved {
		t.Fatalf("model_stale firing=%v resolved=%v after a healthy window: %+v",
			firing, resolved, engine.Snapshot())
	}

	mb := getMetrics(t, ts.URL)
	if !strings.Contains(mb, `dvfsd_model_under_rate{workload="fleet:sha"} 0`) {
		t.Errorf("/metrics missing the recovered under rate:\n%s", mb)
	}
	if strings.Contains(mb, "dvfsd_model_stale") {
		t.Error("/metrics still exports the monitor's own stale gauge")
	}
}
