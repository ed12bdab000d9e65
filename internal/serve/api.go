package serve

import (
	"repro/internal/features"
	"repro/internal/obs"
)

// Wire types of the dvfsd HTTP API (v1).
//
//	POST /v1/models/{name}         train (TrainConfig body, may be empty)
//	POST /v1/models/{name}?mode=upload   upload a distribution JSON
//	GET  /v1/models                list models (ListResponse)
//	POST /v1/predict               one job (PredictRequest → PredictResponse)
//	POST /v1/predict/batch         many jobs (BatchRequest → BatchResponse)
//	GET  /healthz                  liveness + ready-model count
//	GET  /metrics                  Prometheus text format

// PredictJob is one job to predict: the recorded feature trace plus
// the run-time quantities the controller needs.
type PredictJob struct {
	// Features is the job's recorded feature trace (the client runs
	// the prediction slice or instrumented task locally).
	Features features.WireTrace `json:"features"`
	// Params carries job input parameters; only consulted for models
	// trained with programmer hints (§3.5).
	Params map[string]int64 `json:"params,omitempty"`
	// BudgetSec is the job's remaining time budget; 0 selects the
	// workload's default budget.
	BudgetSec float64 `json:"budget_sec,omitempty"`
	// PredictorSec is the predictor cost already paid client-side,
	// subtracted from the budget (§3.4); 0 when unknown.
	PredictorSec float64 `json:"predictor_sec,omitempty"`
	// Level is the current DVFS level index; nil selects the
	// platform's maximum level.
	Level *int `json:"level,omitempty"`
}

// PredictRequest asks for one decision from a named model.
type PredictRequest struct {
	Model string `json:"model"`
	PredictJob
}

// PredictResponse is the decision for one job.
type PredictResponse struct {
	Model string `json:"model"`
	// Level is the chosen DVFS level index; FreqKHz its clock rate.
	Level   int   `json:"level"`
	FreqKHz int64 `json:"freq_khz"`
	// TFminSec and TFmaxSec are the model's predicted job times at the
	// platform's minimum and maximum frequencies.
	TFminSec float64 `json:"t_fmin_sec"`
	TFmaxSec float64 `json:"t_fmax_sec"`
	// EffBudgetSec is the effective budget after predictor cost.
	EffBudgetSec float64 `json:"eff_budget_sec"`
	// PredictedExecSec is the expected execution time at Level.
	PredictedExecSec float64 `json:"predicted_exec_sec"`
}

// BatchRequest asks for decisions on many jobs of one model.
type BatchRequest struct {
	Model string       `json:"model"`
	Jobs  []PredictJob `json:"jobs"`
}

// BatchResponse carries one result per requested job, in order.
type BatchResponse struct {
	Model   string            `json:"model"`
	Results []PredictResponse `json:"results"`
}

// ListResponse is GET /v1/models.
type ListResponse struct {
	Models []ModelStatus `json:"models"`
}

// HealthResponse is GET /healthz.
type HealthResponse struct {
	Status      string `json:"status"`
	ModelsReady int    `json:"models_ready"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SLOResponse is GET /debug/slo: the configured deadline-miss target
// and the burn-rate status of each key ingested fleet traces fed
// (fleet, platform:<name>, workload:<name>; each in the Workload
// field).
type SLOResponse struct {
	Target    float64         `json:"target"`
	Workloads []obs.SLOStatus `json:"workloads"`
}
