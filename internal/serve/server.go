package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// ServerOptions configures NewServer. The zero value of each field
// selects a production-reasonable default.
type ServerOptions struct {
	// Log receives structured request logs; nil discards them.
	Log *slog.Logger
	// Metrics receives request/decision observations; nil allocates a
	// private registry.
	Metrics *Metrics
	// RequestTimeout bounds each /v1/ request via context; 0 → 30s.
	// Synchronous train requests degrade to 202 Accepted when the
	// build outlives the timeout (the build itself keeps running).
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served /v1/ requests; excess
	// load is shed with 429 + Retry-After. 0 → 256.
	MaxInflight int
	// Tracer, when non-nil, receives a one-shot DecisionEvent per
	// served prediction (the job runs client-side, so no residual is
	// ever attached; Done stays false).
	Tracer *obs.Tracer
	// Stream, when non-nil, is served at GET /v1/events as a live SSE
	// decision stream. The broadcaster must also be attached to the
	// tracer as a sink (cmd/dvfsd wires both ends).
	Stream *obs.Broadcaster
	// Fleet, when non-nil, enables POST /v1/fleet/ingest (decision
	// traces, JSONL or binary) and GET /v1/fleet, gives /debug/dash its
	// fleet sections, and exports fleet gauges through the shared
	// metrics registry. cmd/dvfsd always sets it.
	Fleet *obs.FleetTracker
	// FleetSLO, when non-nil, receives every ingested fleet event for
	// keyed burn-rate tracking (fleet / platform:* / workload:* keys).
	// Its burn rates are exported as dvfsd_slo_burn_rate{key,window}
	// (the series the builtin slo_burn alert rule watches) and its
	// status is served at GET /debug/slo. Served predictions never
	// feed it: their jobs run client-side and report no outcome.
	FleetSLO *obs.SLOTracker
	// MaxIngestBytes bounds /v1/fleet/ingest bodies, which are whole
	// traces and dwarf normal API requests; 0 → 256 MiB.
	MaxIngestBytes int64
	// History, when non-nil, is the embedded telemetry store: GET
	// /v1/query serves range queries over it, /metrics gains store
	// gauges, and /debug/dash grows ?window= history charts.
	// The scrape loop feeding it lives in cmd/dvfsd, not here.
	History *tsdb.Store
	// Alerts, when non-nil, is served at GET /v1/alerts: live alert
	// state and the incident timeline, which /debug/dash also renders,
	// plus firing-span overlays on its history charts. cmd/dvfsd sets
	// it whenever the telemetry store is on; the evaluation tick lives
	// there (scraper.After), not here.
	Alerts *alert.Engine
	// Energy, when non-nil, is the online energy meter: its totals are
	// exported through /metrics, /debug/dash grows an energy section,
	// and ingested fleet events feed it. cmd/dvfsd also attaches it to
	// the tracer as a sink so served decisions are metered.
	Energy *alert.EnergyMeter
	// Drift, when non-nil, receives completed predicted fleet events
	// (keyed "fleet:<workload>"); the serve path itself never completes
	// a job. Each workload's under-prediction rate is exported as
	// dvfsd_model_under_rate{workload} (the series the builtin
	// model_stale alert rule watches) and charted on /debug/dash.
	Drift *obs.DriftMonitor
	// EnableDebug mounts GET /debug/decisions (the tracer ring as
	// JSON), GET /debug/slo (the fleet SLO status as JSON), GET
	// /debug/dash (the one operations page, whose sections render what
	// the JSON endpoints serve), and the net/http/pprof handlers under
	// /debug/pprof/.
	EnableDebug bool
}

// Request limits. Fleet trace ingest has its own, larger body limit
// (ServerOptions.MaxIngestBytes).
const (
	maxBatch     = 1024    // jobs per batch request
	maxBodyBytes = 8 << 20 // API request body bytes
)

// Server is the dvfsd HTTP front end: routing, per-request timeouts,
// load shedding, metrics, and structured logs around a Registry.
type Server struct {
	reg     *Registry
	log     *slog.Logger
	metrics *Metrics
	timeout time.Duration
	sem     chan struct{}
	tracer  *obs.Tracer
	stream  *obs.Broadcaster
	start   time.Time
	mux     *http.ServeMux

	fleet     *obs.FleetTracker
	fleetSLO  *obs.SLOTracker
	sloBurn   *obs.GaugeVec
	fleetG    *fleetGauges
	maxIngest int64

	history  *tsdb.Store
	historyG *tsdbGauges

	alerts    *alert.Engine
	alertG    *alertGauges
	energy    *alert.EnergyMeter
	energyG   *energyGauges
	drift     *obs.DriftMonitor
	underRate *obs.GaugeVec
}

// NewServer wires the HTTP API around a registry.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics()
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 256
	}
	if opts.MaxIngestBytes <= 0 {
		opts.MaxIngestBytes = 256 << 20
	}
	s := &Server{
		reg:     reg,
		log:     opts.Log,
		metrics: opts.Metrics,
		timeout: opts.RequestTimeout,
		sem:     make(chan struct{}, opts.MaxInflight),
		tracer:  opts.Tracer,
		stream:  opts.Stream,
		start:   time.Now(),
		mux:     http.NewServeMux(),

		fleet:     opts.Fleet,
		fleetSLO:  opts.FleetSLO,
		maxIngest: opts.MaxIngestBytes,

		history: opts.History,

		alerts: opts.Alerts,
		energy: opts.Energy,
		drift:  opts.Drift,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/models", s.guard("models_list", s.handleListModels))
	s.mux.HandleFunc("POST /v1/models/{name}", s.guard("models_put", s.handleModelPut))
	s.mux.HandleFunc("POST /v1/predict", s.guard("predict", s.handlePredict))
	s.mux.HandleFunc("POST /v1/predict/batch", s.guard("predict_batch", s.handlePredictBatch))
	// Mounted even without a store so clients get a JSON hint, not a
	// bare 404, when history is disabled.
	s.mux.HandleFunc("GET /v1/query", s.guard("query", s.handleQuery))
	if opts.History != nil {
		s.historyG = newTSDBGauges(s.metrics.Registry())
	}
	// Mounted even without an engine so clients get a JSON hint, not a
	// bare 404, when alerting is disabled.
	s.mux.HandleFunc("GET /v1/alerts", s.guard("alerts", s.handleAlerts))
	if opts.Alerts != nil {
		s.alertG = newAlertGauges(s.metrics.Registry())
	}
	if opts.Energy != nil {
		s.energyG = newEnergyGauges(s.metrics.Registry())
	}
	if opts.FleetSLO != nil {
		s.sloBurn = s.metrics.Registry().GaugeVec("dvfsd_slo_burn_rate",
			"Deadline-miss rate of ingested fleet jobs over a recent window divided by the SLO target.", "key", "window")
	}
	if opts.Drift != nil {
		s.underRate = s.metrics.Registry().GaugeVec("dvfsd_model_under_rate",
			"Share of a workload's last 256 ingested predicted jobs that ran longer than predicted (set once 50 are in).", "workload")
	}
	if opts.Fleet != nil {
		s.fleetG = newFleetGauges(s.metrics.Registry())
		// Traces are orders of magnitude larger than API requests, so
		// ingest gets its own body limit.
		s.mux.HandleFunc("POST /v1/fleet/ingest", s.guardBody("fleet_ingest", s.maxIngest, s.handleFleetIngest))
		s.mux.HandleFunc("GET /v1/fleet", s.guard("fleet_status", s.handleFleetStatus))
	}
	if opts.Stream != nil {
		// Deliberately unguarded: a stream is long-lived by design, so
		// the per-request timeout and the inflight semaphore would
		// either kill it or let stalled streams starve the API.
		s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	}
	if opts.EnableDebug {
		s.mux.HandleFunc("GET /debug/decisions", s.handleDecisions)
		s.mux.HandleFunc("GET /debug/dash", s.handleDash)
		s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter records the response status and size for logs/metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// guard wraps an API handler with the production plumbing: concurrency
// limiting (shed with 429 + Retry-After), a per-request timeout
// context, body size limits, metrics, and a structured request log.
func (s *Server) guard(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.guardBody(route, 0, h)
}

// guardBody is guard with an explicit body limit; 0 uses
// maxBodyBytes. Fleet trace ingest is the one route that needs more.
func (s *Server) guardBody(route string, maxBody int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			sw.Header().Set("Retry-After", "1")
			writeJSON(sw, http.StatusTooManyRequests, ErrorResponse{Error: "server at capacity"})
			s.metrics.ObserveShed()
			s.finish(route, r, sw, t0)
			return
		}
		s.metrics.AddInflight(1)
		defer s.metrics.AddInflight(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			limit := maxBody
			if limit <= 0 {
				limit = maxBodyBytes
			}
			r.Body = http.MaxBytesReader(sw, r.Body, limit)
		}
		h(sw, r)
		s.finish(route, r, sw, t0)
	}
}

// finish records a finished request in the metrics and the request
// log. Successful requests log at Debug only: the metrics already count
// every one by route, status and duration, and at Info a line per
// success cost more daemon CPU than the decision itself. Sheds and
// errors stay at Info.
func (s *Server) finish(route string, r *http.Request, sw *statusWriter, t0 time.Time) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	dur := time.Since(t0)
	s.metrics.ObserveRequest(route, sw.status, dur.Seconds())
	level := slog.LevelDebug
	if sw.status >= http.StatusBadRequest {
		level = slog.LevelInfo
	}
	ctx := r.Context()
	if !s.log.Enabled(ctx, level) {
		return
	}
	s.log.LogAttrs(ctx, level, "request",
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Float64("dur_ms", float64(dur.Microseconds())/1000),
		slog.Int("bytes", sw.bytes),
		slog.String("remote", r.RemoteAddr),
	)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", ModelsReady: s.reg.Ready()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.SyncGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = s.metrics.WriteTo(w)
}

// SyncGauges refreshes every sync-on-read gauge (models ready, build
// queue depth, model ages, ring drops, fleet aggregates, SLO burn
// rates, model under-prediction rates, telemetry store stats, energy
// meter totals, alert state).
// /metrics calls it per scrape; the telemetry scrape loop calls it per
// tick so history, and the alert rules evaluated over it, reflect the
// same state the exposition would.
func (s *Server) SyncGauges() {
	s.metrics.SetModelsReady(s.reg.Ready())
	s.metrics.SetQueueDepth(s.reg.QueueDepth())
	for name, age := range s.reg.ModelAges(time.Now()) {
		s.metrics.SetModelAge(name, age)
	}
	if s.tracer != nil {
		s.metrics.SyncRingDropped("decisions", s.tracer.Dropped())
	}
	if s.fleet != nil && s.fleetG != nil {
		snap := s.fleet.Snapshot()
		s.fleetG.sync(&snap)
	}
	if s.fleetSLO != nil {
		for _, st := range s.fleetSLO.Snapshot() {
			s.sloBurn.With(st.Workload, "fast").Set(st.FastBurn)
			s.sloBurn.With(st.Workload, "slow").Set(st.SlowBurn)
		}
	}
	if s.drift != nil {
		for workload, rate := range s.drift.UnderRates() {
			s.underRate.With(workload).Set(rate)
		}
	}
	if s.history != nil && s.historyG != nil {
		s.historyG.sync(s.history.Stats())
	}
	if s.energy != nil && s.energyG != nil {
		s.energyG.sync(s.energy)
	}
	if s.alerts != nil && s.alertG != nil {
		s.alertG.sync(s.alerts)
	}
}

// handleDecisions dumps the most recent decision events from the
// tracer ring as JSON — a live tail of what the daemon is deciding,
// without attaching a sink. ?n= bounds the raw snapshot (default 100);
// ?workload=, ?since=, and ?last= apply the same obs.EventFilter
// dvfstrace and dvfsreplay take as flags.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "decision tracing disabled (start dvfsd with tracing enabled)"})
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("invalid n %q", q)})
			return
		}
		n = v
	}
	f, err := obs.FilterFromQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if !f.IsZero() {
		// Filters select from the whole ring; ?n= alone keeps the cheap
		// tail-only snapshot.
		n = 0
	}
	events := f.Apply(s.tracer.Snapshot(n))
	if events == nil {
		events = []obs.DecisionEvent{}
	}
	writeJSON(w, http.StatusOK, events)
}

// handleSLO reports the fleet SLO tracker's state per key: target,
// lifetime misses, and the fast/slow-window burn rates exported for
// the slo_burn alert rule.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.fleetSLO == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "SLO tracking disabled (start dvfsd with -slo-target > 0)"})
		return
	}
	writeJSON(w, http.StatusOK, SLOResponse{Target: s.fleetSLO.Target(), Workloads: s.fleetSLO.Snapshot()})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Models: s.reg.List()})
}

// handleModelPut trains (default) or uploads (?mode=upload) a model.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch mode := r.URL.Query().Get("mode"); mode {
	case "upload":
		st, err := s.reg.Upload(name, r.Body)
		if err != nil {
			writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
	case "", "train":
		var tc TrainConfig
		if err := decodeBody(r, &tc, true); err != nil {
			writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: err.Error()})
			return
		}
		f, st, err := s.reg.Train(name, tc)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
			return
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
			return
		case err != nil:
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		if tc.Async {
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		done, completed := f.Wait(r.Context())
		if !completed {
			// The build outlived the request timeout; it keeps running
			// — report the current state.
			st, _ := s.reg.Status(name)
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		if done.State != StateReady {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: done.Error})
			return
		}
		writeJSON(w, http.StatusOK, done)
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown mode %q (use train or upload)", mode)})
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// The span ledger roots at "serve" and opens with request ingest so
	// the HTTP read + decode is attributed; predictOne adds the lookup
	// and decision phases. st is nil when untraced.
	var st *obs.SpanTimer
	if s.tracer != nil {
		st = obs.NewSpanTimer()
		st.Start(obs.PhaseServe)
		st.Start(obs.PhaseIngest)
	}
	var req PredictRequest
	if err := decodePredict(r, &req); err != nil {
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: err.Error()})
		return
	}
	st.End()
	resp, err := s.predictOne(req.Model, req.PredictJob, st)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	writePredict(w, &resp)
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(r, &req, false); err != nil {
		writeJSON(w, bodyErrorStatus(err), ErrorResponse{Error: err.Error()})
		return
	}
	if len(req.Jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "batch has no jobs"})
		return
	}
	if len(req.Jobs) > maxBatch {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Jobs), maxBatch)})
		return
	}
	resp := BatchResponse{Model: req.Model, Results: make([]PredictResponse, len(req.Jobs))}
	for i, job := range req.Jobs {
		one, err := s.predictOne(req.Model, job, nil)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("job %d: %v", i, err)})
			return
		}
		resp.Results[i] = one
	}
	writeJSON(w, http.StatusOK, resp)
}

// predictOne runs the shared run-time decision (the same
// core.Controller.PredictTrace the simulator's JobStart uses) on a
// wire-encoded trace. st carries the request's span ledger when the
// caller already opened one (handlePredict times the ingest phase);
// batch jobs pass nil and get a fresh per-job ledger.
//
// The serve decision path never blocks: the HTTP layer above it may
// wait on the network, but from registry lookup through the emitted
// decision event everything sheds load instead of waiting.
//
//dvfs:noblock
func (s *Server) predictOne(model string, job PredictJob, st *obs.SpanTimer) (PredictResponse, error) {
	if st == nil && s.tracer != nil {
		st = obs.NewSpanTimer()
		st.Start(obs.PhaseServe)
	}
	st.Start(obs.PhaseLookup)
	//dvfs:allow-block model-table read lock: writers hold it only for a map store when a build finishes
	ctl, err := s.reg.Get(model)
	if err != nil {
		return PredictResponse{}, err
	}
	tr, err := job.Features.Trace()
	if err != nil {
		return PredictResponse{}, err
	}
	st.End()
	plat := ctl.Plat
	cur := plat.MaxLevel()
	if job.Level != nil {
		idx := *job.Level
		if idx < 0 || idx >= len(plat.Levels) {
			return PredictResponse{}, fmt.Errorf("serve: level %d out of range [0,%d)", idx, len(plat.Levels))
		}
		cur = plat.Levels[idx]
	}
	budget := job.BudgetSec
	if budget == 0 {
		budget = ctl.W.DefaultBudgetSec
	}
	if budget < 0 || job.PredictorSec < 0 {
		return PredictResponse{}, fmt.Errorf("serve: negative budget or predictor cost")
	}
	p := ctl.PredictTraceSpans(tr, job.Params, budget, job.PredictorSec, cur, st)
	//dvfs:allow-block per-model metrics update under a short private mutex; no I/O or channel ops inside
	s.metrics.ObserveDecision(model, p.Target.Index)
	if s.tracer != nil {
		// One-shot: the job executes on the client, so the event is
		// never completed with an actual time (Done stays false).
		switchSec := 0.0
		if ctl.Selector.Switch != nil {
			switchSec = ctl.Selector.Switch.Lookup(cur.Index, p.Target.Index)
		}
		spans, spanTotal := st.Finish()
		s.tracer.Emit(obs.DecisionEvent{
			Workload:         model,
			Governor:         "serve",
			TimeSec:          time.Since(s.start).Seconds(),
			FeatHash:         p.FeatHash,
			Predicted:        true,
			TFminSec:         p.TFminSec,
			TFmaxSec:         p.TFmaxSec,
			PredictedExecSec: p.PredictedExecSec,
			Level:            p.Target.Index,
			FreqKHz:          int64(p.Target.FreqHz / 1e3),
			Margin:           ctl.Selector.Margin,
			BudgetSec:        budget,
			EffBudgetSec:     p.EffBudgetSec,
			PredictorSec:     p.PredictorSec,
			SwitchSec:        switchSec,
			Spans:            spans,
			SpanTotalSec:     spanTotal,
		})
	}
	return PredictResponse{
		Model:            model,
		Level:            p.Target.Index,
		FreqKHz:          int64(p.Target.FreqHz / 1e3),
		TFminSec:         p.TFminSec,
		TFmaxSec:         p.TFmaxSec,
		EffBudgetSec:     p.EffBudgetSec,
		PredictedExecSec: p.PredictedExecSec,
	}, nil
}

var errEmptyBody = errors.New("empty request body")

// bodyErrorStatus is the status for a request-body error: 413 when the
// read hit the route's body limit, 400 for anything else.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody parses a JSON request body. allowEmpty accepts an empty
// body as the zero value (train with defaults). A body over the route's
// limit fails with an error that wraps *http.MaxBytesError
// (bodyErrorStatus answers it with 413).
func decodeBody(r *http.Request, v any, allowEmpty bool) error {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(data) == 0 {
		if allowEmpty {
			return nil
		}
		return errEmptyBody
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing body: %w", err)
	}
	return nil
}
