package serve

import (
	"net/http"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/render"
)

// alertGauges surface the alert engine's state on /metrics, synced on
// read like the fleet and tsdb gauges.
type alertGauges struct {
	pending   *obs.Gauge
	firing    *obs.Gauge
	incidents *obs.Counter
}

func newAlertGauges(reg *obs.Registry) *alertGauges {
	return &alertGauges{
		pending: reg.Gauge("dvfsd_alerts_pending",
			"Alert (rule, series) pairs waiting out their For duration."),
		firing: reg.Gauge("dvfsd_alerts_firing",
			"Alert (rule, series) pairs currently firing."),
		incidents: reg.Counter("dvfsd_alert_incidents_total",
			"Incidents opened by the alert engine (firing transitions)."),
	}
}

// sync pushes the engine's live counts into the gauges.
func (g *alertGauges) sync(e *alert.Engine) {
	pending, firing := e.Counts()
	g.pending.Set(float64(pending))
	g.firing.Set(float64(firing))
	g.incidents.RaiseTo(float64(e.IncidentsTotal()))
}

// energyGauges export the online energy meter, synced from a meter
// snapshot on every scrape tick. Joule and job totals are running
// totals per stream, raised into counters (Counter.RaiseTo); the
// per-job, predictor-share, and burn numbers are instantaneous gauges.
type energyGauges struct {
	joules  *obs.CounterVec
	jobs    *obs.CounterVec
	perJob  *obs.GaugeVec
	share   *obs.GaugeVec
	burn    *obs.GaugeVec
	skipped *obs.Counter
}

func newEnergyGauges(reg *obs.Registry) *energyGauges {
	return &energyGauges{
		joules: reg.CounterVec("dvfsd_energy_joules_total",
			"Modeled energy accumulated per decision stream.", "workload", "device"),
		jobs: reg.CounterVec("dvfsd_energy_jobs_total",
			"Jobs metered per decision stream (completed + one-shot).", "workload", "device"),
		perJob: reg.GaugeVec("dvfsd_energy_per_job_joules",
			"Mean modeled energy per completed job.", "workload", "device"),
		share: reg.GaugeVec("dvfsd_energy_predictor_share",
			"Fraction of a stream's energy spent running the predictor.", "workload", "device"),
		burn: reg.GaugeVec("dvfsd_energy_budget_burn",
			"Windowed watts divided by the -energy-budget; 1.0 means the budget is fully consumed.",
			"workload", "device", "window"),
		skipped: reg.Counter("dvfsd_energy_skipped_total",
			"Decision events the energy meter dropped for lack of a usable platform model."),
	}
}

// sync folds a meter snapshot into the exported metrics.
func (g *energyGauges) sync(m *alert.EnergyMeter) {
	for _, st := range m.Snapshot() {
		// A stream's counters appear once it has something to count.
		if st.TotalJ > 0 {
			g.joules.With(st.Workload, st.Device).RaiseTo(st.TotalJ)
		}
		if st.Jobs > 0 {
			g.jobs.With(st.Workload, st.Device).RaiseTo(float64(st.Jobs))
		}
		g.perJob.With(st.Workload, st.Device).Set(st.PerJobJ)
		g.share.With(st.Workload, st.Device).Set(st.PredictorShare)
		if m.BudgetW() > 0 {
			g.burn.With(st.Workload, st.Device, "fast").Set(st.FastBurn)
			g.burn.With(st.Workload, st.Device, "slow").Set(st.SlowBurn)
		}
	}
	g.skipped.RaiseTo(float64(m.Skipped()))
}

// handleAlerts serves GET /v1/alerts: the engine snapshot — rule
// status, active (pending/firing) alerts, and the retained incident
// history, open incidents included.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.alerts == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "alerting disabled (start dvfsd with -tsdb-scrape > 0)"})
		return
	}
	writeJSON(w, http.StatusOK, s.alerts.Snapshot())
}

// firingSpans converts the engine's firing intervals for metric into
// chart overlays for the history panels; nil when alerting is off.
func (s *Server) firingSpans(metric string, fromMs, toMs int64) []render.ChartSpan {
	if s.alerts == nil {
		return nil
	}
	spans := s.alerts.FiringSpans(metric, fromMs, toMs)
	if len(spans) == 0 {
		return nil
	}
	out := make([]render.ChartSpan, len(spans))
	for i, sp := range spans {
		out[i] = render.ChartSpan{
			FromMs: sp.FromMs, ToMs: sp.ToMs,
			Label: sp.Rule + " (" + sp.Severity + ")",
		}
	}
	return out
}
