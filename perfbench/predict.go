package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
)

// predictModels are trained through the API at set-up. Their feature
// widths differ (ldecode selects 6 features, rijndael 3, sha 1), so
// the decision path is exercised at three vector sizes.
var predictModels = []string{"ldecode", "rijndael", "sha"}

// tightBudgetSec is the per-job budget of every workload. At the
// paper's 50 ms budget the prediction governor misses almost no
// deadline, so a miss rate cannot be gated against a relative bound.
// 30 ms (0.6x, the tight end of the paper's Fig. 16 budget sweep) makes
// misses a fifth of the fleet's jobs; at that level their share moves
// little between seeds, while a change in decisions still moves it by
// as many points as at a looser budget.
const tightBudgetSec = 0.030

// daemonSeed is dvfsd's default -seed: its switch table is measured
// with it, and the reference registry must use the same one.
const daemonSeed = 1

// predictJob is one pre-encoded request and the decision the
// in-process reference controller makes for it.
type predictJob struct {
	body []byte
	want serve.PredictResponse
}

func runPredict(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	plat := platform.ODROIDXU3A7() // dvfsd's default -platform a7

	// Inputs: per model a seeded job stream, requests interleaved
	// round-robin over the models.
	perModel := make([][]serve.PredictJob, len(predictModels))
	for k, m := range predictModels {
		jobs, err := serve.GenerateJobs(m, e.sz.PoolPerModel, deriveSeed(e.seed, int64(k)))
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			jobs[i].BudgetSec = tightBudgetSec
		}
		perModel[k] = jobs
	}

	// Reference: an in-process registry with the daemon's platform,
	// switch-table seed and training config.
	reg, err := serve.NewRegistry(serve.RegistryOptions{Plat: plat, Seed: daemonSeed})
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	for _, m := range predictModels {
		f, _, err := reg.Train(m, serve.TrainConfig{})
		if err != nil {
			return nil, err
		}
		if st, ok := f.Wait(ctx); !ok || st.State != serve.StateReady {
			return nil, fmt.Errorf("reference model %s: %s %s", m, st.State, st.Error)
		}
	}
	var pool []predictJob
	inputs := sha256.New()
	for i := 0; i < e.sz.PoolPerModel; i++ {
		for k, m := range predictModels {
			job := perModel[k][i]
			ctl, err := reg.Get(m)
			if err != nil {
				return nil, err
			}
			tr, err := job.Features.Trace()
			if err != nil {
				return nil, err
			}
			p := ctl.PredictTrace(tr, job.Params, job.BudgetSec, job.PredictorSec, plat.MaxLevel())
			body, err := json.Marshal(serve.PredictRequest{Model: m, PredictJob: job})
			if err != nil {
				return nil, err
			}
			inputs.Write(body)
			pool = append(pool, predictJob{body: body, want: serve.PredictResponse{
				Model: m, Level: p.Target.Index, FreqKHz: int64(p.Target.FreqHz / 1e3),
			}})
		}
	}

	// Set-up: start dvfsd and train the models over the API.
	d, setups, setupWalls, err := setUpDaemon(ctx, e, e.sz.SetupRepeats, func(d *daemon) error {
		for _, m := range predictModels {
			if err := trainViaAPI(d.url, m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc(), MaxConnsPerHost: nproc(), DisableCompression: true,
	}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	url := d.url + "/v1/predict"

	// Warm-up: every pool job once. The decision outcomes (energy, miss
	// forecast) are taken from these answers, one per distinct job.
	var energyJ float64
	var misses int
	for i := range pool {
		resp, err := doPredict(client, url, &pool[i])
		out.attempted++
		if err != nil {
			out.fail("warm-up job %d: %v", i, err)
			continue
		}
		energyJ += plat.ActivePower(plat.Levels[resp.Level]) * resp.PredictedExecSec
		if resp.PredictedExecSec > resp.EffBudgetSec {
			misses++
		}
	}

	rss := sampleRSS(d.pid())
	ph := runPredictLoop(ctx, client, url, pool, d.pid(), e.seconds, nil)
	out.add(ph.tally)

	peakRSS, err := rss.stop(out.record)
	if err != nil {
		return nil, err
	}
	// CPU and latency are scaled to a fixed host speed (see hostSpeed);
	// the raw values are in the record.
	speed := ph.hostSpeed()
	out.e2e.set("setup_s", median(setups)*speed, "s")
	out.e2e.set("cpu_us_per_job", ph.cpuUSPerJob()*speed, "us")
	out.e2e.set("latency_p50_ms", ph.latencyP50()*speed, "ms")
	out.e2e.set("peak_rss_mb", peakRSS, "MiB")
	out.e2e.set("energy_j_per_job", energyJ/float64(len(pool)), "J")
	out.e2e.set("miss_rate", float64(misses)/float64(len(pool)), "fraction")
	out.record["models"] = predictModels
	out.record["pool_jobs"] = len(pool)
	out.record["input_sha256"] = fmt.Sprintf("%x", inputs.Sum(nil))
	out.record["budget_s"] = tightBudgetSec
	out.record["conns"] = nproc()
	out.record["setup_s_all"] = setups
	out.record["setup_wall_s_all"] = setupWalls
	ph.diagnostics(out.record)

	if e.traced {
		if err := tracePredict(ctx, e, out, client, d, url, pool, reg, plat, ph); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func trainViaAPI(base, model string) error {
	resp, err := http.Post(base+"/v1/models/"+model, "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		return fmt.Errorf("training %s: %w", model, err)
	}
	defer resp.Body.Close()
	var st serve.ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("training %s: %w", model, err)
	}
	if resp.StatusCode != http.StatusOK || st.State != serve.StateReady {
		return fmt.Errorf("training %s: status %d, state %q", model, resp.StatusCode, st.State)
	}
	return nil
}

// doPredict sends one job and checks the answer against the reference
// decision: status 200, and the same model, level and frequency.
func doPredict(client *http.Client, url string, job *predictJob) (serve.PredictResponse, error) {
	var got serve.PredictResponse
	resp, err := client.Post(url, "application/json", bytes.NewReader(job.body))
	if err != nil {
		return got, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return got, err
	}
	if resp.StatusCode != http.StatusOK {
		return got, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return got, err
	}
	if got.Model != job.want.Model || got.Level != job.want.Level || got.FreqKHz != job.want.FreqKHz {
		return got, fmt.Errorf("decision %s level %d @ %d kHz, reference level %d @ %d kHz",
			got.Model, got.Level, got.FreqKHz, job.want.Level, job.want.FreqKHz)
	}
	return got, nil
}

// loopPhase is one closed-loop timed phase over the daemon.
type loopPhase struct {
	tally
	latMS []float64
	cpu   time.Duration
	wall  time.Duration
	steal float64
	recs  []*recorder
	// clientCPU is the harness's own CPU over the phase: the same
	// client code every run, so it traces the host's speed.
	clientCPU time.Duration
}

func (p *loopPhase) jobs() int { return p.attempted - p.failed }

func (p *loopPhase) latencyP50() float64 { return quantile(p.latMS, 0.5) }

func (p *loopPhase) cpuUSPerJob() float64 { return durUS(p.cpu) / float64(max(p.jobs(), 1)) }

// predictClientRefUS is the client's CPU per request at the reference
// host speed.
const predictClientRefUS = 80.0

// hostSpeed scales this run's daemon CPU and latency to the reference
// host speed: the client runs the same code every run, at the same time
// as dvfsd and on the same CPUs, so its CPU per request follows the
// host's speed.
func (p *loopPhase) hostSpeed() float64 {
	return predictClientRefUS / (durUS(p.clientCPU) / float64(max(p.jobs(), 1)))
}

// diagnostics records the ungated numbers of a phase: wall-clock
// throughput, tail latencies with their sample counts, and the host's
// steal share and speed (the client's CPU per request).
func (p *loopPhase) diagnostics(rec map[string]any) {
	n := len(p.latMS)
	rec["client.jobs_per_s"] = float64(p.jobs()) / p.wall.Seconds()
	rec["client.latency_samples"] = n
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if enoughTail(n, q) {
			rec[fmt.Sprintf("client.latency_p%g_ms", q*100)] = quantile(p.latMS, q)
		}
	}
	rec["host.steal_frac"] = p.steal
	rec["client.cpu_us_per_job"] = durUS(p.clientCPU) / float64(max(p.jobs(), 1))
	rec["cpu_us_per_job_raw"] = p.cpuUSPerJob()
	rec["latency_p50_ms_raw"] = p.latencyP50()
	rec["host_speed_scale"] = p.hostSpeed()
}

// runPredictLoop runs nproc closed-loop clients over the pool for the
// given time: each client sends its next request only after the
// previous answer arrived, as a device waiting for its decision does.
// Requests go round-robin over the pool (and so over the models). With
// recorders, every round trip is a client.roundtrip span.
func runPredictLoop(ctx context.Context, client *http.Client, url string, pool []predictJob, pid int, seconds float64, base *time.Time) *loopPhase {
	ph := &loopPhase{}
	conns := nproc()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, err := procCPU(pid)
	if err != nil {
		ph.fail("%v", err)
		return ph
	}
	ticks0 := readTicks()
	client0 := selfCPU()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < conns; c++ {
		var rec *recorder
		if base != nil {
			rec = newRecorder(*base)
			ph.recs = append(ph.recs, rec)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]float64, 0, 1<<14)
			var tl tally
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				job := &pool[i%int64(len(pool))]
				s := rec.begin("client.roundtrip", -1, i)
				t := time.Now()
				_, err := doPredict(client, url, job)
				d := time.Since(t)
				rec.end(s)
				tl.attempted++
				if err != nil {
					tl.fail("request %d: %v", i, err)
					continue
				}
				lat = append(lat, d.Seconds()*1e3)
			}
			mu.Lock()
			ph.add(tl)
			ph.latMS = append(ph.latMS, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.clientCPU = selfCPU() - client0
	ph.wall = time.Since(t0)
	ph.steal = stealFrac(ticks0, readTicks())
	cpu1, err := procCPU(pid)
	if err != nil {
		ph.fail("%v", err)
		return ph
	}
	ph.cpu = cpu1 - cpu0
	return ph
}

// tracePredict is the traced half of the predict workload. The daemon
// stays untouched: a traced client phase times every round trip and
// reads dvfsd's own request-duration counters, and the server-side
// chain is timed by calling the same public functions in process on
// the same request bodies.
func tracePredict(ctx context.Context, e *env, out *outcome, client *http.Client, d *daemon,
	url string, pool []predictJob, reg *serve.Registry, plat *platform.Platform, untraced *loopPhase) error {
	base := time.Now()
	m0, err := d.metrics(client)
	if err != nil {
		return err
	}
	ph := runPredictLoop(ctx, client, url, pool, d.pid(), e.seconds, &base)
	m1, err := d.metrics(client)
	if err != nil {
		return err
	}
	out.add(ph.tally)

	rec := newRecorder(base)
	for _, r := range ph.recs {
		rec.merge(r)
	}
	sum0, n0 := routeDuration(m0, "predict")
	sum1, n1 := routeDuration(m1, "predict")
	handlerUS := 0.0
	if n1 > n0 {
		handlerUS = (sum1 - sum0) / (n1 - n0) * 1e6
	}
	shed := m1["dvfsd_shed_total"] - m0["dvfsd_shed_total"]

	chain, allocs, err := predictChain(ctx, rec, pool, reg, plat)
	if err != nil {
		return err
	}
	st := rec.stats()
	rtUS := st["client.roundtrip"].meanSec() * 1e6
	L := out.layers
	// Means, not medians, so that the chain sums to the mean round trip.
	inner := 0.0
	for _, span := range chainSpans {
		us := chain[span].meanSec() * 1e6
		L.set(span+"_us", us, "us")
		inner += us
	}
	L.set("core.model_predict_us", chain["core.model_predict"].meanSec()*1e6, "us")
	L.set("core.level_select_us", chain["core.level_select"].meanSec()*1e6, "us")
	L.set("net.kernel_us", rtUS-handlerUS, "us")
	L.set("serve.handler_us", handlerUS, "us")
	L.set("serve.middleware_us", handlerUS-inner, "us")
	L.set("serve.allocs_per_job", allocs, "count")
	if n1 > n0 {
		L.set("serve.shed_frac", shed/(n1-n0+shed), "fraction")
	}
	L.set("client.jobs_per_s", float64(ph.jobs())/ph.wall.Seconds(), "1/s")
	L.set("client.latency_samples", float64(len(ph.latMS)), "count")
	L.set("client.latency_p90_ms", quantile(ph.latMS, 0.9), "ms")
	L.set("client.latency_p99_ms", quantile(ph.latMS, 0.99), "ms")
	L.set("host.steal_frac", ph.steal, "fraction")
	if u := untraced.latencyP50(); u > 0 {
		L.set("bench.trace_overhead_frac", ph.latencyP50()/u-1, "fraction")
	}

	fmt.Printf("predict chain (means per call; sums to the client round trip %.2f us):\n", rtUS)
	for _, n := range append([]string{"net.kernel", "serve.middleware"}, chainSpans...) {
		fmt.Printf("  %-22s %10.2f us\n", n, L[n+"_us"].Value)
	}
	printSelfTable(os.Stdout, "predict spans (client round trips, then the in-process chain):", st)
	return writeSpans(e, "predict", rec)
}

// chainSpans are the calls dvfsd's predict handler makes, in order.
var chainSpans = []string{"serve.decode", "serve.lookup", "features.wire", "core.predict", "obs.emit", "serve.encode"}

// predictChain times, on every pool body, the public calls dvfsd's
// predict handler makes: JSON decode, registry lookup, wire-trace
// decode, the controller decision (split by its own span ledger), the
// decision-event emit into a tracer with dvfsd's sinks, and the JSON
// encode of the answer. A second, untimed pass counts heap
// allocations per job.
func predictChain(ctx context.Context, rec *recorder, pool []predictJob, reg *serve.Registry, plat *platform.Platform) (map[string]*layerStat, float64, error) {
	tracer := daemonTracer(plat)
	local := newRecorder(rec.base)
	var buf bytes.Buffer
	one := func(i int, job *predictJob, r *recorder) error {
		id := int64(i)
		root := r.begin("chain", -1, id)
		defer r.end(root)
		s := r.begin("serve.decode", root, id)
		var req serve.PredictRequest
		err := json.Unmarshal(job.body, &req)
		r.end(s)
		if err != nil {
			return err
		}
		s = r.begin("serve.lookup", root, id)
		ctl, err := reg.Get(req.Model)
		r.end(s)
		if err != nil {
			return err
		}
		s = r.begin("features.wire", root, id)
		tr, err := req.Features.Trace()
		r.end(s)
		if err != nil {
			return err
		}
		cur := plat.MaxLevel()
		s = r.begin("core.predict", root, id)
		// dvfsd's default -span-every 1 gives every decision a ledger.
		st := obs.NewSpanTimer()
		p := ctl.PredictTraceSpans(tr, req.Params, req.BudgetSec, req.PredictorSec, cur, st)
		r.end(s)
		ledger, ledgerSec := st.Finish()
		if r != nil {
			ledgerSpans := map[string]string{obs.PhasePredict: "core.model_predict", obs.PhaseSelect: "core.level_select"}
			at := r.spans[s].start
			for _, sp := range ledger {
				if name, ok := ledgerSpans[sp.Name]; ok {
					r.add(name, s, id, at+int64(sp.StartSec*1e9), at+int64(sp.EndSec()*1e9))
				}
			}
		}
		s = r.begin("obs.emit", root, id)
		ev := decisionEvent(ctl, req, p, cur)
		ev.TimeSec = time.Since(rec.base).Seconds()
		ev.Spans, ev.SpanTotalSec = ledger, ledgerSec
		tracer.Emit(ev)
		r.end(s)
		s = r.begin("serve.encode", root, id)
		buf.Reset()
		err = json.NewEncoder(&buf).Encode(serve.PredictResponse{
			Model: req.Model, Level: p.Target.Index, FreqKHz: int64(p.Target.FreqHz / 1e3),
			TFminSec: p.TFminSec, TFmaxSec: p.TFmaxSec, EffBudgetSec: p.EffBudgetSec,
			PredictedExecSec: p.PredictedExecSec,
		})
		r.end(s)
		if err != nil {
			return err
		}
		if p.Target.Index != job.want.Level {
			return fmt.Errorf("in-process decision level %d, reference %d", p.Target.Index, job.want.Level)
		}
		return nil
	}
	for i := range pool {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		if err := one(i, &pool[i], local); err != nil {
			return nil, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range pool {
		if err := one(i, &pool[i], nil); err != nil {
			return nil, 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	rec.merge(local)
	return local.stats(), float64(ms1.Mallocs-ms0.Mallocs) / float64(len(pool)), nil
}

// daemonTracer builds a tracer with dvfsd's default sink set: the
// ring, the SSE broadcaster, the energy meter, the SLO tracker and the
// drift monitor.
func daemonTracer(plat *platform.Platform) *obs.Tracer {
	stream := obs.NewBroadcaster(obs.BroadcasterOptions{QueueSize: 256})
	energy := alert.NewEnergyMeter(alert.EnergyConfig{Platform: plat})
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01, FastWindow: 128, SlowWindow: 2048})
	drift := obs.NewDriftMonitor(obs.DriftConfig{SLO: slo})
	return obs.NewTracer(obs.TracerOptions{Sinks: []obs.Sink{stream, energy}, Drift: drift, SLO: slo})
}

// decisionEvent is the one-shot event dvfsd emits per served decision.
func decisionEvent(ctl *core.Controller, req serve.PredictRequest, p core.Prediction, cur platform.Level) obs.DecisionEvent {
	switchSec := 0.0
	if ctl.Selector.Switch != nil {
		switchSec = ctl.Selector.Switch.Lookup(cur.Index, p.Target.Index)
	}
	return obs.DecisionEvent{
		Workload: req.Model, Governor: "serve", FeatHash: p.FeatHash, Predicted: true,
		TFminSec: p.TFminSec, TFmaxSec: p.TFmaxSec, PredictedExecSec: p.PredictedExecSec,
		Level: p.Target.Index, FreqKHz: int64(p.Target.FreqHz / 1e3), Margin: ctl.Selector.Margin,
		BudgetSec: req.BudgetSec, EffBudgetSec: p.EffBudgetSec, PredictorSec: p.PredictorSec,
		SwitchSec: switchSec,
	}
}

// writeSpans writes a traced run's spans once, at the end.
func writeSpans(e *env, workload string, rec *recorder) error {
	dir := filepath.Join(e.workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.writeJSONL(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed)))
}
