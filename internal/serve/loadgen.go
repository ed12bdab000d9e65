package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/stats"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// LoadConfig drives RunLoad, the daemon's serving benchmark: replay a
// seeded workload job stream against dvfsd over N concurrent
// connections and measure throughput and latency percentiles.
type LoadConfig struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Workload names the model to query (must be trained/uploaded).
	Workload string
	// Jobs is the total number of jobs to send.
	Jobs int
	// Conns is the number of concurrent client workers.
	Conns int
	// Batch groups jobs per request: 1 uses /v1/predict, larger values
	// use /v1/predict/batch.
	Batch int
	// Seed drives the job input stream.
	Seed int64
	// BudgetSec overrides the workload default budget when positive.
	BudgetSec float64
}

// Report summarizes one load run.
type Report struct {
	Workload    string  `json:"workload"`
	Jobs        int     `json:"jobs"`
	Conns       int     `json:"conns"`
	Batch       int     `json:"batch"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	DurationSec float64 `json:"duration_sec"`
	// Throughput is successful jobs per second.
	Throughput float64 `json:"throughput_jobs_per_sec"`
	// Latency percentiles are per HTTP request, in milliseconds.
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
	// Codes counts responses by HTTP status.
	Codes map[string]int `json:"codes"`
	// Host is the machine the load generator ran on.
	Host Host `json:"host"`
}

// Host describes the machine a benchmark ran on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// GenerateJobs prepares a deterministic job stream for a workload: it
// runs the instrumented task for each job (globals evolving across
// jobs, like a real application) and records the feature traces the
// client would ship to the daemon.
func GenerateJobs(name string, jobs int, seed int64) ([]PredictJob, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if jobs <= 0 {
		jobs = w.EvalJobs
	}
	prog := taskir.Lower(instrument.Instrument(w.Prog).Prog)
	gen := w.NewGen(seed)
	globals := w.FreshGlobals()
	out := make([]PredictJob, 0, jobs)
	for i := 0; i < jobs; i++ {
		tr := features.NewTrace()
		env := taskir.NewEnv(globals)
		params := gen.Next(i)
		env.SetParams(params)
		if _, err := prog.Run(env, taskir.RunOptions{Recorder: tr}); err != nil {
			return nil, fmt.Errorf("serve: generating %s job %d: %w", name, i, err)
		}
		out = append(out, PredictJob{Features: tr.Wire(), Params: params})
	}
	return out, nil
}

// WaitHealthy polls GET /healthz until the daemon answers 200 or ctx
// expires.
func WaitHealthy(ctx context.Context, baseURL string) error {
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: daemon at %s not healthy: %w", baseURL, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// RunLoad replays the prepared jobs against the daemon and measures
// per-request latency. Requests are distributed over cfg.Conns worker
// goroutines sharing one keep-alive transport.
func RunLoad(ctx context.Context, cfg LoadConfig, jobs []PredictJob) (*Report, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	// Pre-encode every request body so the measurement loop does no
	// generation work.
	type prepared struct {
		path string
		body []byte
		jobs int
	}
	var reqs []prepared
	for lo := 0; lo < len(jobs); lo += cfg.Batch {
		hi := lo + cfg.Batch
		if hi > len(jobs) {
			hi = len(jobs)
		}
		chunk := jobs[lo:hi]
		for i := range chunk {
			if cfg.BudgetSec > 0 {
				chunk[i].BudgetSec = cfg.BudgetSec
			}
		}
		var body []byte
		var err error
		var path string
		if cfg.Batch == 1 {
			path = "/v1/predict"
			body, err = json.Marshal(PredictRequest{Model: cfg.Workload, PredictJob: chunk[0]})
		} else {
			path = "/v1/predict/batch"
			body, err = json.Marshal(BatchRequest{Model: cfg.Workload, Jobs: chunk})
		}
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, prepared{path: path, body: body, jobs: len(chunk)})
	}

	transport := &http.Transport{
		MaxIdleConns:        cfg.Conns * 2,
		MaxIdleConnsPerHost: cfg.Conns * 2,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	var next int64
	var mu sync.Mutex
	latencies := make([]float64, 0, len(reqs))
	codes := map[string]int{}
	okJobs := 0
	errorCount := 0

	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := reqs[i]
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+r.path, bytes.NewReader(r.body))
				if err != nil {
					mu.Lock()
					errorCount++
					mu.Unlock()
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				start := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(start).Seconds()
				mu.Lock()
				if err != nil {
					errorCount++
					mu.Unlock()
					continue
				}
				codes[fmt.Sprintf("%d", resp.StatusCode)]++
				latencies = append(latencies, lat)
				if resp.StatusCode == http.StatusOK {
					okJobs += r.jobs
				} else {
					errorCount++
				}
				mu.Unlock()
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	dur := time.Since(t0).Seconds()

	rep := &Report{
		Workload:    cfg.Workload,
		Jobs:        len(jobs),
		Conns:       cfg.Conns,
		Batch:       cfg.Batch,
		Requests:    len(reqs),
		Errors:      errorCount,
		DurationSec: dur,
		Codes:       codes,
		Host:        Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
	}
	if dur > 0 {
		rep.Throughput = float64(okJobs) / dur
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		rep.P50MS = stats.QuantileSorted(latencies, 0.50) * 1e3
		rep.P95MS = stats.QuantileSorted(latencies, 0.95) * 1e3
		rep.P99MS = stats.QuantileSorted(latencies, 0.99) * 1e3
		rep.MaxMS = latencies[len(latencies)-1] * 1e3
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		rep.MeanMS = sum / float64(len(latencies)) * 1e3
	}
	return rep, nil
}

// TrainRemote asks the daemon to train a model and waits for the
// result (the server degrades to 202 if the build outlives its
// request timeout, in which case TrainRemote polls until ready).
func TrainRemote(ctx context.Context, baseURL, name string, tc TrainConfig) (ModelStatus, error) {
	body, err := json.Marshal(tc)
	if err != nil {
		return ModelStatus{}, err
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/models/%s", baseURL, name), bytes.NewReader(body))
	if err != nil {
		return ModelStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return ModelStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ModelStatus{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var st ModelStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return ModelStatus{}, err
		}
		return st, nil
	case http.StatusAccepted:
		return pollReady(ctx, client, baseURL, name)
	default:
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return ModelStatus{}, fmt.Errorf("serve: training %s: %s", name, e.Error)
		}
		return ModelStatus{}, fmt.Errorf("serve: training %s: HTTP %d", name, resp.StatusCode)
	}
}

// pollReady polls the model list until name is ready or failed.
func pollReady(ctx context.Context, client *http.Client, baseURL, name string) (ModelStatus, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/models", nil)
		if err != nil {
			return ModelStatus{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return ModelStatus{}, err
		}
		var list ListResponse
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			return ModelStatus{}, err
		}
		for _, st := range list.Models {
			if st.Name != name {
				continue
			}
			switch st.State {
			case StateReady:
				return st, nil
			case StateFailed:
				return st, fmt.Errorf("serve: training %s failed: %s", name, st.Error)
			}
		}
		select {
		case <-ctx.Done():
			return ModelStatus{}, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}
