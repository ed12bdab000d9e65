package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// fleetGauges are the Prometheus-exposed fleet aggregates, synced from
// a FleetTracker snapshot on every /metrics scrape (the same
// sync-on-read pattern handleMetrics uses for model ages).
type fleetGauges struct {
	devices   *obs.GaugeVec // by health class
	missRate  *obs.Gauge
	resid     *obs.GaugeVec // residual fraction by quantile
	worst     *obs.Gauge    // worst device health score
	ingested  *obs.Counter  // events accepted by /v1/fleet/ingest
	completed *obs.Gauge
}

func newFleetGauges(reg *obs.Registry) *fleetGauges {
	return &fleetGauges{
		devices: reg.GaugeVec("dvfsd_fleet_devices",
			"tracked fleet devices by health class", "class"),
		missRate: reg.Gauge("dvfsd_fleet_miss_rate",
			"fleet-wide deadline miss fraction over ingested completed jobs"),
		resid: reg.GaugeVec("dvfsd_fleet_residual_frac",
			"fleet |residual|/predicted quantiles (sketch-backed)", "q"),
		worst: reg.Gauge("dvfsd_fleet_worst_score",
			"health score of the worst classified device"),
		ingested: reg.Counter("dvfsd_fleet_ingested_events_total",
			"decision events accepted by /v1/fleet/ingest"),
		completed: reg.Gauge("dvfsd_fleet_completed_jobs",
			"completed jobs observed by the fleet tracker"),
	}
}

// sync pushes a snapshot into the gauges.
func (g *fleetGauges) sync(s *obs.FleetStatus) {
	g.devices.With(obs.ClassHealthy).Set(float64(s.Healthy))
	g.devices.With(obs.ClassDegraded).Set(float64(s.Degraded))
	g.devices.With(obs.ClassOutlier).Set(float64(s.Outliers))
	g.devices.With(obs.ClassFresh).Set(float64(s.Fresh))
	g.missRate.Set(s.MissRate)
	g.resid.With("0.5").Set(s.ResidualFrac.P50)
	g.resid.With("0.95").Set(s.ResidualFrac.P95)
	g.resid.With("0.99").Set(s.ResidualFrac.P99)
	g.completed.Set(float64(s.Completed))
	if len(s.Worst) > 0 {
		g.worst.Set(s.Worst[0].Score)
	}
}

// FleetIngestResponse acknowledges a trace upload.
type FleetIngestResponse struct {
	Events    int    `json:"events"`
	Format    string `json:"format"`
	Devices   int    `json:"devices"`
	Completed uint64 `json:"completed"`
}

// handleFleetIngest accepts a decision trace — JSONL or the DVFSTRC1
// binary format, sniffed from the first bytes — and streams every
// event into the fleet tracker (plus the fleet SLO tracker, the
// energy meter, and the drift monitor when configured). Bodies stream
// through fixed-size buffers: a multi-GB binary fleet trace never
// materializes in memory.
func (s *Server) handleFleetIngest(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReaderSize(r.Body, 64*1024)
	head, err := br.Peek(8)
	if err != nil && len(head) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty trace body"})
		return
	}

	n := 0
	emit := func(e *obs.DecisionEvent) {
		s.fleet.Emit(e)
		if s.fleetSLO != nil {
			s.fleetSLO.ObserveEvent(e)
		}
		if s.energy != nil {
			s.energy.Emit(e)
		}
		if s.drift != nil && e.Done && e.Predicted {
			// Ingested traces are the only completed predictions this
			// daemon sees (served jobs run client-side), so they are what
			// feeds dvfsd_model_under_rate. Keyed apart from any
			// co-located controller's own residual stream.
			s.drift.Observe("fleet:"+e.Workload, e.ResidualSec)
		}
		n++
	}
	format := "jsonl"
	if trace.IsBinaryTrace(head) {
		format = "binary"
		err = trace.ScanBinary(br, func(e *obs.DecisionEvent) error {
			emit(e)
			return nil
		})
	} else {
		err = scanJSONL(br, emit)
	}
	if s.fleetG != nil {
		s.fleetG.ingested.Add(float64(n))
	}
	if err != nil {
		// Events already ingested stay ingested — the tracker is a
		// monotone accumulator, and the counter above counts them — but
		// the client must know its upload was cut short.
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("after %d events: %v", n, err)})
		return
	}
	// The ack echoes running totals only; scoring the fleet for them
	// would cost every upload a full Snapshot.
	devices, completed := s.fleet.Counts()
	writeJSON(w, http.StatusOK, FleetIngestResponse{
		Events:    n,
		Format:    format,
		Devices:   devices,
		Completed: completed,
	})
}

// scanJSONL streams newline-delimited DecisionEvents without holding
// the whole trace: one decode per line, 1 MiB line cap (matching the
// JSONL sink's own output scale).
func scanJSONL(r io.Reader, emit func(*obs.DecisionEvent)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e obs.DecisionEvent
		if err := json.Unmarshal(b, &e); err != nil {
			return fmt.Errorf("jsonl line %d: %w", line, err)
		}
		emit(&e)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("jsonl line %d: %w", line, err)
	}
	return nil
}

// handleFleetStatus serves GET /v1/fleet as the machine-readable
// snapshot the dashboard renders.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.fleet.Snapshot()
	writeJSON(w, http.StatusOK, snap)
}

// handleFleetDash serves GET /debug/fleet: the fleet-scale sibling of
// /debug/dash — health distribution, sketch-backed quantile bands over
// the ingest history, the top-K worst devices with attribution, heavy-
// hitter miss counts, and the fleet SLO burn table. Self-contained
// HTML, auto-refreshing, read-only.
func (s *Server) handleFleetDash(w http.ResponseWriter, r *http.Request) {
	window, err := parseWindow(r.URL.Query().Get("window"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	p := render.NewHTMLPage("dvfsd fleet")
	p.RefreshSec = 5
	snap := s.fleet.Snapshot()

	p.Section("Overview")
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
		p.Note("No fleet events ingested yet — POST a decision trace (JSONL or binary) to /v1/fleet/ingest and this page fills in.")
		s.historySection(p, "/debug/fleet", window, fleetHistoryCharts)
		p.WriteTo(w)
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

	if s.fleetSLO != nil {
		p.Section(fmt.Sprintf("Fleet SLO burn (target %.2f%% miss rate)", 100*s.fleetSLO.Target()))
		sloRows := [][]string{}
		for _, st := range s.fleetSLO.Snapshot() {
			alert := ""
			if st.Alerting {
				alert = "ALERT"
			}
			sloRows = append(sloRows, []string{
				st.Workload, fmt.Sprintf("%d", st.Jobs), fmt.Sprintf("%d", st.Misses),
				fmt.Sprintf("%.2f%%", 100*st.MissRate),
				fmt.Sprintf("%.2f", st.FastBurn), fmt.Sprintf("%.2f", st.SlowBurn), alert,
			})
		}
		if len(sloRows) > 0 {
			p.Table([]string{"key", "jobs", "misses", "miss rate", "fast burn", "slow burn", ""},
				sloRows, []bool{false, true, true, true, true, true, false})
		} else {
			p.Para("No completed jobs observed yet.")
		}
	}

	s.historySection(p, "/debug/fleet", window, fleetHistoryCharts)
	p.WriteTo(w)
}

// fleetHistoryCharts are the /debug/fleet long-horizon panels. The
// fleet gauges are synced per telemetry-scrape tick (SyncGauges), so
// these series move even when nobody polls /metrics.
var fleetHistoryCharts = []historyChart{
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
