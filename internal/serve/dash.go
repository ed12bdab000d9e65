package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/tsdb"
)

// dashWindow bounds how many ring events feed the dashboard's rolling
// views.
const dashWindow = 256

// handleDash serves GET /debug/dash, dvfsd's one operations page: a
// self-contained document (inline CSS + SVG, zero scripts, zero
// external assets) that re-polls itself via <meta refresh>. Each
// section renders the value its JSON endpoint serves — the tracer ring
// (/debug/decisions), the fleet snapshot (/v1/fleet), the SLO status
// (/debug/slo) and the alert snapshot (/v1/alerts) — plus the energy
// meter, the drift monitor and the telemetry store, so the page and
// the API cannot disagree. A configured component always gets its
// section, with an empty-state note until data arrives. Rendering is
// read-only and cheap enough to leave unauthenticated on the debug
// mux.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	window, err := parseWindow(r.URL.Query().Get("window"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	p := render.NewHTMLPage("dvfsd operations")
	p.RefreshSec = 5

	var events []obs.DecisionEvent
	if s.tracer != nil {
		events = s.tracer.Snapshot(dashWindow)
	}
	s.overviewSection(p)
	decisionSection(p, events, s.start)
	if s.fleet != nil {
		snap := s.fleet.Snapshot()
		fleetSection(p, &snap)
	}
	if s.fleetSLO != nil {
		sloSection(p, SLOResponse{Target: s.fleetSLO.Target(), Workloads: s.fleetSLO.Snapshot()})
	}
	if s.alerts != nil {
		snap := s.alerts.Snapshot()
		alertSection(p, &snap)
	}
	if s.energy != nil {
		energySection(p, s.energy)
	}
	if s.drift != nil {
		driftSection(p, s.drift)
	}
	s.historySection(p, window)
	p.WriteTo(w)
}

// overviewSection renders the daemon's own counters.
func (s *Server) overviewSection(p *render.HTMLPage) {
	p.Section("Overview")
	rows := [][]string{
		{"uptime", fmt.Sprintf("%.0f s", time.Since(s.start).Seconds())},
		{"models ready", fmt.Sprintf("%d", s.reg.Ready())},
	}
	if s.tracer != nil {
		rows = append(rows,
			[]string{"decisions traced", fmt.Sprintf("%d", s.tracer.Emitted())},
			[]string{"ring overwrites", fmt.Sprintf("%d", s.tracer.Dropped())},
		)
	} else {
		rows = append(rows, []string{"decision tracing", "disabled"})
	}
	if s.stream != nil {
		rows = append(rows,
			[]string{"stream subscribers", fmt.Sprintf("%d", s.stream.Subscribers())},
			[]string{"stream drops", fmt.Sprintf("%d", s.stream.Dropped())},
		)
	}
	p.Table([]string{"", ""}, rows, []bool{false, true})
}

// decisionSection renders the tail of the tracer ring: sparklines over
// the served decisions, their phase table and level occupancy. Served
// decisions are one-shot (their jobs run client-side), so the ring
// holds no deadline outcomes or residuals to chart.
func decisionSection(p *render.HTMLPage, events []obs.DecisionEvent, start time.Time) {
	if len(events) == 0 {
		p.Note("No decisions in the trace ring yet — send predictions (dvfsload, or POST /v1/predict) and this page fills in.")
		return
	}
	rep := obs.Analyze(events)

	p.Section(fmt.Sprintf("Rolling window (last %d decisions)", len(events)))
	p.Para("Workloads: " + strings.Join(rep.Workloads, ", "))
	// The sparklines below are event-indexed (one point per decision,
	// not per unit time), so name the wall-clock span they actually
	// cover instead of implying a fixed window.
	first := start.Add(time.Duration(events[0].TimeSec * float64(time.Second)))
	last := start.Add(time.Duration(events[len(events)-1].TimeSec * float64(time.Second)))
	p.Para(fmt.Sprintf("One point per decision; first sample %s, last sample %s (spanning %s).",
		first.UTC().Format("15:04:05"), last.UTC().Format("15:04:05"),
		last.Sub(first).Round(time.Second)))
	if ds := decisionMicros(events); len(ds) > 0 {
		p.Sparkline("decision time", ds, "%.1f µs")
	}
	p.Sparkline("level", levelSeries(events), "%.0f")

	if len(rep.Phases) > 0 {
		p.Section(fmt.Sprintf("Decision phases (spans on %d of %d events)", rep.SpanEvents, rep.Events))
		phRows := make([][]string, 0, len(rep.Phases))
		for _, ph := range rep.Phases {
			phRows = append(phRows, []string{
				ph.Name, fmt.Sprintf("%d", ph.N),
				obs.FormatDur(ph.MeanSec), obs.FormatDur(ph.P50Sec),
				obs.FormatDur(ph.P95Sec), obs.FormatDur(ph.MaxSec),
			})
		}
		p.Table([]string{"phase", "n", "mean", "p50", "p95", "max"}, phRows,
			[]bool{false, true, true, true, true, true})
	}

	labels := make([]string, 0, len(rep.Levels))
	occs := make([]float64, 0, len(rep.Levels))
	for _, l := range rep.Levels {
		labels = append(labels, fmt.Sprintf("level %d", l.Level))
		occs = append(occs, 100*l.Frac)
	}
	p.BarChart("Level occupancy", labels, occs, "%.1f%%")
}

// fleetSection renders the fleet snapshot: totals, the health
// distribution, sketch-backed quantile bands over the ingest history,
// the top-K worst devices with attribution, and heavy-hitter miss
// counts.
func fleetSection(p *render.HTMLPage, snap *obs.FleetStatus) {
	p.Section("Fleet overview")
	rows := [][]string{
		{"devices", fmt.Sprintf("%d", snap.Devices)},
		{"events ingested", fmt.Sprintf("%d", snap.Events)},
		{"completed jobs", fmt.Sprintf("%d", snap.Completed)},
		{"fleet miss rate", fmt.Sprintf("%.2f%%", 100*snap.MissRate)},
		{"residual frac p50 / p95 / p99", fmt.Sprintf("%.3f / %.3f / %.3f",
			snap.ResidualFrac.P50, snap.ResidualFrac.P95, snap.ResidualFrac.P99)},
	}
	p.Table([]string{"", ""}, rows, []bool{false, true})
	if snap.Events == 0 {
		p.Note("No fleet events ingested yet — POST a decision trace (JSONL or binary) to /v1/fleet/ingest and the fleet sections fill in.")
		return
	}

	p.Section("Health distribution")
	p.BarChart("Devices by class",
		[]string{"healthy", "degraded", "outlier", "fresh"},
		[]float64{float64(snap.Healthy), float64(snap.Degraded),
			float64(snap.Outliers), float64(snap.Fresh)},
		"%.0f")

	if len(snap.History) > 1 {
		p.Section(fmt.Sprintf("Ingest history (%d samples)", len(snap.History)))
		miss := make([]float64, len(snap.History))
		lo := make([]float64, len(snap.History))
		mid := make([]float64, len(snap.History))
		hi := make([]float64, len(snap.History))
		for i, pt := range snap.History {
			miss[i] = 100 * pt.MissRate
			lo[i] = pt.ResidP50
			mid[i] = pt.ResidP95
			hi[i] = pt.ResidP99
		}
		p.Sparkline("fleet miss rate", miss, "%.2f%%")
		p.Band("residual frac p50–p99 (p95 line)", lo, mid, hi, "%.3f")
	}

	if len(snap.Worst) > 0 {
		p.Section(fmt.Sprintf("Worst devices (top %d by health score)", len(snap.Worst)))
		header := []string{"device", "platform", "workload", "jobs", "miss %", "miss ewma", "drift", "energy/job", "score", "class", "cause"}
		dRows := make([][]string, 0, len(snap.Worst))
		for _, d := range snap.Worst {
			dRows = append(dRows, []string{
				d.Device, d.Platform, d.Workload,
				fmt.Sprintf("%d", d.Jobs),
				fmt.Sprintf("%.2f", 100*d.MissRate),
				fmt.Sprintf("%.4f", d.MissEWMA),
				fmt.Sprintf("%.4f", d.DriftEWMA),
				fmt.Sprintf("%.4g J", d.EnergyPerJob),
				fmt.Sprintf("%.3f", d.Score),
				d.Class,
				d.Attribution,
			})
		}
		p.Table(header, dRows, []bool{false, false, false, true, true, true, true, true, true, false, false})
	}

	if len(snap.TopMiss) > 0 {
		p.Section("Top deadline-missing devices (space-saving sketch)")
		header := []string{"device", "misses ≤", "guaranteed ≥"}
		hRows := make([][]string, 0, len(snap.TopMiss))
		for _, h := range snap.TopMiss {
			hRows = append(hRows, []string{
				h.Key,
				fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%d", h.Count-h.Err),
			})
		}
		p.Table(header, hRows, []bool{false, true, true})
	}
}

// sloSection renders the fleet SLO's burn rates per key; the alerts
// section shows whether slo_burn fires on them.
func sloSection(p *render.HTMLPage, sr SLOResponse) {
	p.Section(fmt.Sprintf("Fleet SLO burn (target %.2f%% miss rate)", 100*sr.Target))
	if len(sr.Workloads) == 0 {
		p.Para("No completed jobs observed yet.")
		return
	}
	rows := make([][]string, 0, len(sr.Workloads))
	for _, st := range sr.Workloads {
		rows = append(rows, []string{
			st.Workload, fmt.Sprintf("%d", st.Jobs), fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%.2f%%", 100*st.MissRate),
			fmt.Sprintf("%.2f", st.FastBurn), fmt.Sprintf("%.2f", st.SlowBurn),
		})
	}
	p.Table([]string{"key", "jobs", "misses", "miss rate", "fast burn", "slow burn"},
		rows, []bool{false, true, true, true, true, true})
}

// alertSection renders the alert engine's snapshot: counts, the rule
// table with live state, active alerts, and the incident history
// newest-first.
func alertSection(p *render.HTMLPage, snap *alert.Snapshot) {
	p.Section("Alerts")
	pending, firing := 0, 0
	for _, a := range snap.Active {
		switch a.State {
		case alert.StatePending:
			pending++
		case alert.StateFiring:
			firing++
		}
	}
	open := 0
	for _, inc := range snap.Incidents {
		if inc.EndMs == 0 {
			open++
		}
	}
	rows := [][]string{
		{"rules", fmt.Sprintf("%d", len(snap.Rules))},
		{"firing", fmt.Sprintf("%d", firing)},
		{"pending", fmt.Sprintf("%d", pending)},
		{"open incidents", fmt.Sprintf("%d", open)},
		{"evaluations", fmt.Sprintf("%d", snap.Evals)},
		{"query errors", fmt.Sprintf("%d", snap.QueryErrors)},
	}
	if snap.LastEvalMs > 0 {
		rows = append(rows, []string{"last evaluation", alertTime(snap.LastEvalMs)})
	}
	p.Table([]string{"", ""}, rows, []bool{false, true})

	p.Section("Alert rules")
	rRows := make([][]string, 0, len(snap.Rules))
	for _, r := range snap.Rules {
		rRows = append(rRows, []string{
			r.Name, string(r.Kind), r.Metric, r.Severity,
			string(r.State), fmt.Sprintf("%d", r.Series),
		})
	}
	p.Table([]string{"rule", "kind", "metric", "severity", "state", "series"},
		rRows, []bool{false, false, false, false, false, true})

	p.Section("Active alerts")
	if len(snap.Active) == 0 {
		p.Para("Nothing pending or firing.")
	} else {
		aRows := make([][]string, 0, len(snap.Active))
		for _, a := range snap.Active {
			aRows = append(aRows, []string{
				a.Rule, a.Series, string(a.State), a.Severity,
				alertTime(a.SinceMs), fmt.Sprintf("%.4g", a.Value),
			})
		}
		p.Table([]string{"rule", "series", "state", "severity", "since", "value"},
			aRows, []bool{false, false, false, false, false, true})
	}

	p.Section(fmt.Sprintf("Incidents (%d retained, newest first)", len(snap.Incidents)))
	if len(snap.Incidents) == 0 {
		p.Para("No incidents yet — the engine opens one per pending→firing transition.")
		return
	}
	iRows := make([][]string, 0, len(snap.Incidents))
	for _, inc := range snap.Incidents {
		end, dur := "open", "—"
		if inc.EndMs > 0 {
			end = alertTime(inc.EndMs)
			dur = (time.Duration(inc.EndMs-inc.StartMs) * time.Millisecond).Round(time.Second).String()
		} else if snap.LastEvalMs > inc.StartMs {
			dur = (time.Duration(snap.LastEvalMs-inc.StartMs) * time.Millisecond).Round(time.Second).String() + "+"
		}
		iRows = append(iRows, []string{
			alertTime(inc.StartMs), end, dur, inc.Rule, inc.Series,
			inc.Severity, fmt.Sprintf("%.4g", inc.Value), inc.Summary,
		})
	}
	p.Table([]string{"started", "ended", "duration", "rule", "series", "severity", "value", "summary"},
		iRows, []bool{false, false, false, false, false, false, true, false})
}

// alertTime renders an epoch-ms timestamp the way the page shows
// wall-clock times.
func alertTime(ms int64) string {
	if ms <= 0 {
		return "—"
	}
	return time.UnixMilli(ms).UTC().Format("15:04:05")
}

// energySection renders the online energy meter's per-stream totals —
// the live counterpart of dvfsreplay's offline reconstruction.
func energySection(p *render.HTMLPage, m *alert.EnergyMeter) {
	title := "Energy (modeled)"
	if bw := m.BudgetW(); bw > 0 {
		title = fmt.Sprintf("Energy (modeled, budget %.3g W)", bw)
	}
	p.Section(title)
	streams := m.Snapshot()
	if len(streams) == 0 {
		p.Para("No decisions metered yet.")
		return
	}
	header := []string{"workload", "device", "jobs", "total", "energy/job", "predictor", "burn fast", "burn slow"}
	rows := make([][]string, 0, len(streams))
	for _, st := range streams {
		burnF, burnS := "—", "—"
		if m.BudgetW() > 0 {
			burnF = fmt.Sprintf("%.2f×", st.FastBurn)
			burnS = fmt.Sprintf("%.2f×", st.SlowBurn)
		}
		rows = append(rows, []string{
			st.Workload, st.Device,
			fmt.Sprintf("%d", st.Jobs),
			fmt.Sprintf("%.4g J", st.TotalJ),
			fmt.Sprintf("%.4g J", st.PerJobJ),
			fmt.Sprintf("%.1f%%", 100*st.PredictorShare),
			burnF, burnS,
		})
	}
	p.Table(header, rows, []bool{false, false, true, true, true, true, true, true})
	if sk := m.Skipped(); sk > 0 {
		p.Para(fmt.Sprintf("%d events skipped (no usable platform power model).", sk))
	}
}

// driftSection renders each workload's drift window: the
// under-prediction rate against the model_stale threshold, and the
// residual quantiles. Fleet ingest feeds the monitor.
func driftSection(p *render.HTMLPage, d *obs.DriftMonitor) {
	p.Section("Prediction drift")
	wls := d.Workloads()
	if len(wls) == 0 {
		p.Para("No ingested residuals yet — completed predicted jobs POSTed to /v1/fleet/ingest feed the monitor.")
		return
	}
	rows := make([][]string, 0, len(wls))
	for _, wl := range wls {
		rows = append(rows, []string{
			wl,
			fmt.Sprintf("%.1f%%", 100*d.UnderRate(wl)),
			fmt.Sprintf("%+.3f ms", 1e3*d.Quantile(wl, 0.50)),
			fmt.Sprintf("%+.3f ms", 1e3*d.Quantile(wl, 0.95)),
		})
	}
	under := fmt.Sprintf("under-predictions (model_stale > %.1f%%)", 100*obs.DriftMaxUnderRate)
	p.Table([]string{"workload", under, "residual p50", "residual p95"},
		rows, []bool{false, true, true, true})
}

// historyCharts are the page's long-horizon panels, served from the
// embedded telemetry store. Gauges synced per scrape tick (SyncGauges)
// move even when nobody polls /metrics; a panel whose metric has no
// series (an unconfigured meter, engine or fleet tracker) is skipped.
var historyCharts = []historyChart{
	{title: "requests/s", metric: "dvfsd_requests_total", agg: tsdb.AggRate, format: "%.2f/s"},
	{title: "request p95", metric: "dvfsd_request_duration_seconds",
		labels: []tsdb.Label{{Name: "quantile", Value: "0.95"}},
		scale:  1e3, format: "%.3f ms"},
	{title: "decisions/s", metric: "dvfsd_decisions_total", agg: tsdb.AggRate, format: "%.2f/s"},
	{title: "goroutines", metric: "go_goroutines", format: "%.0f"},
	{title: "heap", metric: "go_heap_bytes", scale: 1.0 / (1 << 20), format: "%.1f MiB"},
	{title: "GC pause p99", metric: "go_gc_pause_seconds",
		labels: []tsdb.Label{{Name: "quantile", Value: "0.99"}},
		scale:  1e3, format: "%.3f ms"},
	{title: "sched latency p99", metric: "go_sched_latency_seconds",
		labels: []tsdb.Label{{Name: "quantile", Value: "0.99"}},
		scale:  1e3, format: "%.3f ms"},
	{title: "energy budget burn (slow)", metric: "dvfsd_energy_budget_burn",
		labels: []tsdb.Label{{Name: "window", Value: "slow"}},
		agg:    tsdb.AggMax, format: "%.2f×"},
	{title: "alerts firing", metric: "dvfsd_alerts_firing",
		agg: tsdb.AggMax, format: "%.0f"},
	{title: "fleet miss rate", metric: "dvfsd_fleet_miss_rate", scale: 100, format: "%.2f%%"},
	{title: "ingested events/s", metric: "dvfsd_fleet_ingested_events_total",
		agg: tsdb.AggRate, format: "%.1f/s"},
	{title: "residual frac p95", metric: "dvfsd_fleet_residual_frac",
		labels: []tsdb.Label{{Name: "q", Value: "0.95"}}, format: "%.3f"},
	{title: "worst device score", metric: "dvfsd_fleet_worst_score", format: "%.3f"},
	{title: "degraded devices", metric: "dvfsd_fleet_devices",
		labels: []tsdb.Label{{Name: "class", Value: obs.ClassDegraded}},
		agg:    tsdb.AggMax, format: "%.0f"},
}

// decisionMicros is the measured decision-phase time in microseconds
// per span-carrying event (the serve root span).
func decisionMicros(events []obs.DecisionEvent) []float64 {
	var out []float64
	for i := range events {
		for _, sp := range events[i].Spans {
			if sp.Depth == 0 && sp.Name == obs.PhaseServe {
				out = append(out, 1e6*sp.DurSec)
				break
			}
		}
	}
	return out
}

// levelSeries is the chosen DVFS level per event.
func levelSeries(events []obs.DecisionEvent) []float64 {
	out := make([]float64, len(events))
	for i := range events {
		out[i] = float64(events[i].Level)
	}
	return out
}
