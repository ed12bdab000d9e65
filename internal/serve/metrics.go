package serve

import (
	"io"
	"strconv"

	"repro/internal/obs"
)

// Metrics is dvfsd's metrics facade, exposed at GET /metrics in the
// Prometheus text exposition format. The storage lives in a shared
// obs.Registry — the same counter/gauge/histogram machinery the
// simulator and drift monitor use — so this type only names the
// daemon's metric families and keeps the hot predict path to one
// counter bump and one histogram observation per request.
type Metrics struct {
	reg        *obs.Registry
	requests   *obs.CounterVec
	latency    *obs.HistogramVec
	builds     *obs.Histogram
	buildFails *obs.Counter
	decisions  *obs.CounterVec
	shed       *obs.Counter
	inflight   *obs.Gauge
	ready      *obs.Gauge
	queueDepth *obs.Gauge
	modelAge   *obs.GaugeVec

	ringDropped *obs.CounterVec
}

// requestBuckets covers sub-millisecond predicts up to slow
// synchronous trains.
var requestBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// buildBuckets covers model training times.
var buildBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// NewMetrics returns a registry with the daemon's metric families.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		requests: reg.CounterVec("dvfsd_requests_total",
			"Finished HTTP requests by route and status code.", "route", "code"),
		latency: reg.HistogramVec("dvfsd_request_duration_seconds",
			"Request latency by route.", requestBuckets, "route"),
		builds: reg.Histogram("dvfsd_build_duration_seconds",
			"Model build (train/load) duration.", buildBuckets),
		buildFails: reg.Counter("dvfsd_build_failures_total",
			"Model builds that ended in error."),
		decisions: reg.CounterVec("dvfsd_decisions_total",
			"Predictions by model and chosen DVFS level.", "model", "level"),
		shed: reg.Counter("dvfsd_shed_total",
			"Requests rejected by the concurrency limiter."),
		inflight: reg.Gauge("dvfsd_inflight_requests",
			"Requests currently being served."),
		ready: reg.Gauge("dvfsd_models_ready",
			"Models with a servable controller."),
		queueDepth: reg.Gauge("dvfsd_build_queue_depth",
			"Model builds waiting for the build worker."),
		modelAge: reg.GaugeVec("dvfsd_model_age_seconds",
			"Seconds since each servable model was built or loaded.", "model"),
		ringDropped: reg.CounterVec("obs_ring_dropped_total",
			"Decision events overwritten in a ring buffer before any reader saw them.", "ring"),
	}
}

// Registry exposes the underlying obs registry, so the server's fleet,
// SLO, drift, energy, alert and store families and cmd/dvfsd's stream
// drop counter and runtime collector render on the same /metrics page
// and feed the same telemetry scrape.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveRequest records one finished request.
func (m *Metrics) ObserveRequest(route string, code int, seconds float64) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.latency.With(route).Observe(seconds)
}

// ObserveBuild records one finished model build.
func (m *Metrics) ObserveBuild(seconds float64, err error) {
	m.builds.Observe(seconds)
	if err != nil {
		m.buildFails.Inc()
	}
}

// ObserveDecision records one prediction outcome.
func (m *Metrics) ObserveDecision(model string, level int) {
	m.decisions.With(model, strconv.Itoa(level)).Inc()
}

// ObserveShed records one load-shed (429) response.
func (m *Metrics) ObserveShed() { m.shed.Inc() }

// AddInflight adjusts the in-flight gauge by delta.
func (m *Metrics) AddInflight(delta int) { m.inflight.Add(float64(delta)) }

// SetModelsReady updates the ready-model gauge.
func (m *Metrics) SetModelsReady(n int) { m.ready.Set(float64(n)) }

// SetQueueDepth updates the build-queue-depth gauge.
func (m *Metrics) SetQueueDepth(n int) { m.queueDepth.Set(float64(n)) }

// SetModelAge updates the per-model age gauge.
func (m *Metrics) SetModelAge(model string, seconds float64) {
	m.modelAge.With(model).Set(seconds)
}

// SyncRingDropped folds a ring's running drop total into the
// obs_ring_dropped_total counter (called on each /metrics scrape, so
// drops surface without putting a metrics update on the trace path).
func (m *Metrics) SyncRingDropped(ring string, total uint64) {
	m.ringDropped.With(ring).RaiseTo(float64(total))
}

// RequestCount returns the total finished requests for a route across
// all status codes (tests use it to check counter consistency).
func (m *Metrics) RequestCount(route string) int64 {
	var n int64
	m.requests.Each(func(labelVals []string, value float64) {
		if labelVals[0] == route {
			n += int64(value)
		}
	})
	return n
}

// WriteTo renders the registry in the Prometheus text format with
// deterministic ordering.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }
