// Package obs is the cross-cutting observability layer: per-decision
// tracing for the prediction controller (a lock-free ring buffer with
// pluggable JSONL / in-memory / Chrome-trace sinks), a shared metrics
// registry rendering the Prometheus text exposition, and a
// prediction-drift monitor that watches the residual between predicted
// and actual execution time.
//
// The paper's controller is feed-forward: it predicts a job's
// execution time, picks a frequency, and never looks back. That makes
// the *residual* (actual − predicted) the one signal that tells an
// operator whether the trained model still describes the workload —
// under-prediction is what causes deadline misses (§3.3's asymmetric α
// penalty exists precisely to suppress it). This package makes the
// residual, the overhead attribution (slice time + DVFS switch time
// subtracted from the budget, §3.4), and the per-level occupancy
// observable at run time, in the simulator and in the dvfsd serving
// tier alike.
package obs

import "math"

// DecisionEvent is one controller decision and, once the job has run,
// its outcome. Events are immutable after emission; every field is
// wire-encodable (no NaNs — absent predictions are flagged, not
// encoded).
type DecisionEvent struct {
	// Seq is the tracer-assigned global sequence number.
	Seq uint64 `json:"seq"`
	// Workload and Governor identify the decision source; in the
	// serving tier Workload is the model name and Governor is "serve".
	Workload string `json:"workload"`
	Governor string `json:"governor,omitempty"`
	// Device identifies the simulated (or real) device the decision
	// was made on. Empty on single-device sources — only fleet
	// simulation and fleet-aware tooling populate it.
	Device string `json:"device,omitempty"`
	// Platform names the platform model the device runs
	// (platform.ByName resolves it). Fleet and dvfssim traces carry it
	// on every event — a heterogeneous fleet has no single trace-wide
	// platform, and replay prices each trace on the platform it names;
	// empty when the consumer already knows the platform out of band.
	Platform string `json:"platform,omitempty"`
	// Job is the job's index within its stream.
	Job int `json:"job"`
	// TimeSec is the decision time on the source's clock (simulated
	// time in the simulator, seconds since process start in dvfsd).
	TimeSec float64 `json:"time_sec"`
	// ReleaseSec and DeadlineSec are the job's release and absolute
	// deadline on the same clock. Zero on events from sources that do
	// not know them (e.g. dvfsd one-shot predictions); replay treats
	// DeadlineSec > 0 as the marker that the scheduling fields
	// (including FromLevel) are populated.
	ReleaseSec  float64 `json:"release_sec,omitempty"`
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// FeatHash is an FNV-1a hash of the vectorized feature vector —
	// enough to correlate decisions made for identical inputs without
	// shipping the features themselves.
	FeatHash uint64 `json:"feat_hash,omitempty"`
	// Predicted reports whether the governor produced a prediction;
	// baseline governors (performance, interactive, ...) do not.
	Predicted bool `json:"predicted"`
	// TFminSec and TFmaxSec are the model's predicted job times at the
	// platform's minimum and maximum frequencies.
	TFminSec float64 `json:"tfmin_sec,omitempty"`
	TFmaxSec float64 `json:"tfmax_sec,omitempty"`
	// PredictedExecSec is the un-margined expected execution time at
	// the chosen level.
	PredictedExecSec float64 `json:"predicted_exec_sec,omitempty"`
	// Level is the chosen DVFS level index; FreqKHz its clock rate.
	Level   int   `json:"level"`
	FreqKHz int64 `json:"freq_khz,omitempty"`
	// FromLevel is the level the platform was running at when the job
	// started (the switch source), filled in from the simulator's
	// outcome. Only meaningful when DeadlineSec > 0 — older logs
	// predate the field and a bare zero would alias the
	// highest-frequency level index.
	FromLevel int `json:"from_level,omitempty"`
	// Margin is the safety-margin fraction applied to predictions.
	Margin float64 `json:"margin,omitempty"`
	// BudgetSec is the job's remaining budget at decision time;
	// EffBudgetSec is what is left after subtracting the predictor's
	// own cost estimate (§3.4). PredictorSec is the predictor time the
	// job was charged, and SwitchSec the switch-table estimate for the
	// transition the decision asked for — the overhead §3.4 charges
	// against the budget. Events from governors that do not trace
	// themselves (the record adapter) have no estimate, and carry the
	// measured transition time there instead.
	BudgetSec    float64 `json:"budget_sec,omitempty"`
	EffBudgetSec float64 `json:"eff_budget_sec,omitempty"`
	PredictorSec float64 `json:"predictor_sec,omitempty"`
	SwitchSec    float64 `json:"switch_sec,omitempty"`
	// MeasSwitchSec is the measured (jitter-sampled) transition time the
	// platform actually spent switching FromLevel → Level, including
	// mid-job transitions forced by sampling governors — what the job's
	// timeline paid, as opposed to SwitchSec's table estimate. Filled
	// in from the simulator's outcome; zero when the source cannot
	// measure it.
	MeasSwitchSec float64 `json:"meas_switch_sec,omitempty"`
	// Done reports that the job finished and its outcome fields —
	// TimeSec, FromLevel, PredictorSec, MeasSwitchSec and the fields
	// below — hold what the simulator measured.
	Done bool `json:"done"`
	// ActualExecSec is the job's measured execution time at the chosen
	// level (predictor and switch overheads excluded).
	ActualExecSec float64 `json:"actual_exec_sec,omitempty"`
	// ResidualSec is ActualExecSec − PredictedExecSec: positive means
	// the model under-predicted (the dangerous direction). Only
	// meaningful when Done and Predicted are both set.
	ResidualSec float64 `json:"residual_sec,omitempty"`
	// Missed reports a deadline miss: the job ended after DeadlineSec
	// on the simulator's wall clock. It has this one definition on
	// every completed event (governor.Outcome.Complete writes it).
	Missed bool `json:"missed,omitempty"`
	// Spans is a served decision's per-phase latency ledger on dvfsd's
	// clock (serve: ingest, registry lookup, model predict, level
	// select), flat in preorder with nesting encoded by Span.Depth.
	// Empty on simulated decisions, whose phases are the outcome
	// fields above (PredictorSec, MeasSwitchSec, ActualExecSec), and on
	// sampled-out served ones.
	Spans []Span `json:"spans,omitempty"`
	// SpanTotalSec is the ledger's extent — the end of its last
	// top-level span — i.e. the served decision's time in dvfsd. Zero
	// when Spans is empty.
	SpanTotalSec float64 `json:"span_total_sec,omitempty"`
}

// UnderPredicted reports whether the event completed with the model
// having predicted less time than the job took.
func (e *DecisionEvent) UnderPredicted() bool {
	return e.Done && e.Predicted && e.ResidualSec > 0
}

// FNV-1a parameters (FNV-0 offset basis hashed over "chongo <Landon
// Curt Noll> /\\../\\", and the 64-bit FNV prime).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// FeatureHash hashes a feature vector with FNV-1a over the IEEE-754
// bits of each value (little-endian, identical to hash/fnv fed the
// same bytes — but inlined, so it stays off the heap). The same vector
// always hashes the same way, so equal-input decisions can be
// correlated across runs and tiers.
//
//dvfs:hotpath
func FeatureHash(x []float64) uint64 {
	h := fnvOffset64
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h ^= uint64(bits>>i) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}
