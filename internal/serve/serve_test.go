package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

const (
	testProfileJobs = 80
	testSeed        = 42
)

// newTestStack builds a registry+server pair on a fixed platform and
// switch table so tests can construct a bit-identical in-process
// reference controller.
func newTestStack(t *testing.T, dir string) (*Registry, *httptest.Server, *platform.Platform, *platform.SwitchTable) {
	t.Helper()
	plat := platform.ODROIDXU3A7()
	sw := platform.MeasureSwitchTable(plat, 500, 0.95, testSeed)
	reg, err := NewRegistry(RegistryOptions{Dir: dir, Plat: plat, Switch: sw, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	srv := NewServer(reg, ServerOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return reg, ts, plat, sw
}

func trainViaAPI(t *testing.T, ts *httptest.Server, name string) ModelStatus {
	t.Helper()
	body, _ := json.Marshal(TrainConfig{ProfileJobs: testProfileJobs, Seed: testSeed})
	resp, err := http.Post(ts.URL+"/v1/models/"+name, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != StateReady {
		t.Fatalf("train %s: HTTP %d, status %+v", name, resp.StatusCode, st)
	}
	return st
}

// referenceController rebuilds, in-process, exactly the controller the
// daemon trains (core.Build is deterministic in its config).
func referenceController(t *testing.T, plat *platform.Platform, sw *platform.SwitchTable, name string) *core.Controller {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.Build(w, core.Config{
		Plat: plat, Switch: sw, ProfileJobs: testProfileJobs, ProfileSeed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// The acceptance test from the issue: start dvfsd on a loopback
// listener, train ldecode through the API, issue ≥1000 concurrent
// /v1/predict requests, and require zero 5xx, decisions identical to
// calling the Controller in-process, and /metrics counters consistent
// with the request count.
func TestEndToEndConcurrentPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, ts, plat, sw := newTestStack(t, "")
	trainViaAPI(t, ts, "ldecode")
	ctl := referenceController(t, plat, sw, "ldecode")

	jobs, err := GenerateJobs("ldecode", 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	// In-process reference decisions over the same wire traces.
	want := make([]PredictResponse, len(jobs))
	for i, job := range jobs {
		tr, err := job.Features.Trace()
		if err != nil {
			t.Fatal(err)
		}
		p := ctl.PredictTrace(tr, job.Params, ctl.W.DefaultBudgetSec, 0, plat.MaxLevel())
		want[i] = PredictResponse{
			Model:            "ldecode",
			Level:            p.Target.Index,
			FreqKHz:          int64(p.Target.FreqHz / 1e3),
			TFminSec:         p.TFminSec,
			TFmaxSec:         p.TFmaxSec,
			EffBudgetSec:     p.EffBudgetSec,
			PredictedExecSec: p.PredictedExecSec,
		}
	}

	const workers = 50
	const perWorker = 20 // 1000 requests total
	client := ts.Client()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := (g*perWorker + k) % len(jobs)
				body, _ := json.Marshal(PredictRequest{Model: "ldecode", PredictJob: jobs[i]})
				resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode >= 500 {
					resp.Body.Close()
					errs <- fmt.Errorf("request %d/%d: HTTP %d", g, k, resp.StatusCode)
					return
				}
				var got PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("job %d: served %+v, in-process %+v", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Metrics must agree with what we sent: 1000 predict requests, all
	// 200, and per-level decision counts summing to 1000.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	wantLine := fmt.Sprintf(`dvfsd_requests_total{route="predict",code="200"} %d`, workers*perWorker)
	if !strings.Contains(text, wantLine) {
		t.Errorf("metrics missing %q:\n%s", wantLine, text)
	}
	total := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `dvfsd_decisions_total{model="ldecode"`) {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			total += n
		}
	}
	if total != workers*perWorker {
		t.Errorf("decision counts sum to %d, want %d", total, workers*perWorker)
	}
	if !strings.Contains(text, `dvfsd_request_duration_seconds_count{route="predict"} 1000`) {
		t.Errorf("latency histogram count missing or wrong:\n%s", text)
	}
}

func TestBatchPredictMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, ts, _, _ := newTestStack(t, "")
	trainViaAPI(t, ts, "sha")
	jobs, err := GenerateJobs("sha", 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(BatchRequest{Model: "sha", Jobs: jobs})
	resp, err := http.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(jobs) {
		t.Fatalf("batch returned %d results for %d jobs", len(batch.Results), len(jobs))
	}
	for i, job := range jobs {
		b, _ := json.Marshal(PredictRequest{Model: "sha", PredictJob: job})
		r2, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var single PredictResponse
		err = json.NewDecoder(r2.Body).Decode(&single)
		r2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if single != batch.Results[i] {
			t.Fatalf("job %d: single %+v != batch %+v", i, single, batch.Results[i])
		}
	}
}

func TestPredictErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, ts, _, _ := newTestStack(t, "")
	trainViaAPI(t, ts, "sha")

	cases := []struct {
		name string
		body string
	}{
		{"unknown model", `{"model":"nope","features":{}}`},
		{"bad trace key", `{"model":"sha","features":{"counts":{"abc":1}}}`},
		{"non-canonical trace key", `{"model":"sha","features":{"counts":{"7":1,"07":2,"+7":3}}}`},
		{"level out of range", `{"model":"sha","features":{},"level":99}`},
		{"negative budget", `{"model":"sha","features":{},"budget_sec":-1}`},
		{"empty body", ``},
		{"not json", `hello`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("missing error body (%v)", err)
			}
		})
	}

	// Training an unknown workload fails fast with 400.
	resp, err := http.Post(ts.URL+"/v1/models/bogus", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("training unknown workload: HTTP %d, want 400", resp.StatusCode)
	}
}

// The concurrency limiter must shed with 429 + Retry-After when the
// server is at capacity (white-box: hold the only semaphore slot).
func TestLoadShedding(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := NewServer(reg, ServerOptions{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	// healthz bypasses the limiter: the daemon stays observable under
	// overload.
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: HTTP %d", h.StatusCode)
	}
}

func TestUploadServesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, ts, plat, sw := newTestStack(t, "")
	ctl := referenceController(t, plat, sw, "sha")
	var buf bytes.Buffer
	if err := core.SaveController(&buf, ctl); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/sha?mode=upload", "application/json", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}
	jobs, err := GenerateJobs("sha", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(PredictRequest{Model: "sha", PredictJob: jobs[0]})
	p, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Body.Close()
	if p.StatusCode != http.StatusOK {
		t.Fatalf("predict after upload: HTTP %d", p.StatusCode)
	}
}

// RunLoad drives a live daemon end to end and reports sane numbers.
func TestRunLoadAgainstTestServer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, ts, _, _ := newTestStack(t, "")
	trainViaAPI(t, ts, "sha")
	jobs, err := GenerateJobs("sha", 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(t.Context(), LoadConfig{
		BaseURL: ts.URL, Workload: "sha", Conns: 8, Batch: 1,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors: %+v", rep.Errors, rep.Codes)
	}
	if rep.Requests != 60 || rep.Codes["200"] != 60 {
		t.Fatalf("expected 60 OK requests, got %+v", rep)
	}
	if rep.Throughput <= 0 || rep.P99MS < rep.P50MS {
		t.Fatalf("nonsensical report: %+v", rep)
	}
}
