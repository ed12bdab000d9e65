package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/trace"
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
	body := &limitWatch{r: r.Body}
	br := bufio.NewReaderSize(body, 64*1024)
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
		if body.tooLarge != nil {
			err = fmt.Errorf("reading body: %w", body.tooLarge)
		}
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{
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

// limitWatch remembers the *http.MaxBytesError a body read returned.
// The trace decoders can report a body cut at the limit as a parse
// error of its last, truncated record instead.
type limitWatch struct {
	r        io.Reader
	tooLarge *http.MaxBytesError
}

func (l *limitWatch) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if e, ok := err.(*http.MaxBytesError); ok {
		l.tooLarge = e
	}
	return n, err
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

// handleFleetStatus serves GET /v1/fleet: the fleet snapshot
// /debug/dash's fleet sections render.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.fleet.Snapshot()
	writeJSON(w, http.StatusOK, snap)
}
