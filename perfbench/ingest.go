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
	"time"

	"repro/internal/alert"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/trace"
)

// chunk is one upload: a complete binary trace of consecutive devices,
// about the size of a gateway's batch.
type chunk struct {
	body      []byte
	events    int
	completed int
	misses    int
}

// chunker is the fleet sink that cuts the trace into per-upload chunks
// of a fixed number of devices (fleet.Run emits devices in order).
type chunker struct {
	per     int
	devs    int
	lastDev string
	buf     *bytes.Buffer
	bw      *trace.BinaryWriter
	cur     chunk
	chunks  []chunk
	err     error
}

func (c *chunker) Emit(e *obs.DecisionEvent) {
	if e.Device != c.lastDev {
		if c.devs == c.per {
			c.flush()
		}
		c.lastDev = e.Device
		c.devs++
	}
	if c.bw == nil {
		c.buf = &bytes.Buffer{}
		c.bw = trace.NewBinaryWriter(c.buf)
	}
	c.bw.Emit(e)
	c.cur.events++
	if e.Done {
		c.cur.completed++
		if e.Missed {
			c.cur.misses++
		}
	}
}

func (c *chunker) flush() {
	if c.bw == nil {
		return
	}
	if err := c.bw.Close(); err != nil && c.err == nil {
		c.err = err
	}
	c.cur.body = c.buf.Bytes()
	c.chunks = append(c.chunks, c.cur)
	c.cur, c.bw, c.devs = chunk{}, nil, 0
}

func (c *chunker) Close() error {
	c.flush()
	return c.err
}

// fleetView is the part of GET /v1/fleet the checks read.
type fleetView struct {
	Devices   int     `json:"devices"`
	Events    uint64  `json:"events"`
	Completed uint64  `json:"completed"`
	Misses    uint64  `json:"misses"`
	MissRate  float64 `json:"miss_rate"`
}

// ingestState is what the daemon must report after the uploads the
// harness has had acknowledged.
type ingestState struct {
	events, completed, misses uint64
}

func runFleetIngest(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	sz := e.sz

	// Inputs: one seeded fleet, cut into per-upload chunks.
	cfg, err := replaySetup(sz.IngestJobs)
	if err != nil {
		return nil, err
	}
	cfg.Devices = sz.IngestDevices
	cfg.Seed = e.seed
	ck := &chunker{per: sz.ChunkDevices}
	cfg.Sink = ck
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := ck.Close(); err != nil {
		return nil, err
	}
	chunks := ck.chunks

	// Set-up: dvfsd start until healthy.
	d, setups, setupWalls, err := setUpDaemon(ctx, e, sz.SetupRepeats, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true}, Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()

	// Warm-up: one round, so every device is tracked before timing,
	// then one read. The fleet's miss rate is read back from the
	// daemon here, when it has seen each job exactly once.
	var want ingestState
	for i := range chunks {
		out.attempted++
		if err := upload(client, d.url, &chunks[i], &want); err != nil {
			out.fail("warm-up upload %d: %v", i, err)
		}
	}
	out.attempted++
	view, err := readFleet(client, d.url)
	if err != nil {
		return nil, err
	}
	if err := view.check(sz.IngestDevices, want); err != nil {
		out.fail("after warm-up: %v", err)
	}
	if view.Misses != uint64(res.Misses) || view.Completed != uint64(res.Jobs) {
		out.fail("daemon saw %d misses in %d jobs, simulation %d in %d", view.Misses, view.Completed, res.Misses, res.Jobs)
	}

	rss := sampleRSS(d.pid())
	ph := ingestLoop(ctx, e, client, d, chunks, &want, nil)
	out.add(ph.tally)

	// Final read: the daemon's totals must match what was acknowledged.
	out.attempted++
	if final, err := readFleet(client, d.url); err != nil {
		out.fail("final read: %v", err)
	} else if err := final.check(sz.IngestDevices, want); err != nil {
		out.fail("final read: %v", err)
	}

	peakRSS, err := rss.stop(out.record)
	if err != nil {
		return nil, err
	}
	// CPU is scaled to a fixed host speed (see hostSpeed); the raw values
	// are in the record.
	speed := ph.hostSpeed()
	out.e2e.set("setup_s", median(setups)*speed, "s")
	out.e2e.set("cpu_us_per_job", ph.cpuUSPerEvent()*speed, "us")
	out.e2e.set("latency_p50_ms", median(ph.uploadCPUMS)*speed, "ms")
	out.e2e.set("peak_rss_mb", peakRSS, "MiB")
	out.e2e.set("energy_j_per_job", res.EnergyJ/float64(res.Jobs), "J")
	out.e2e.set("miss_rate", view.MissRate, "fraction")
	out.record["fleet_devices"] = sz.IngestDevices
	out.record["chunk_devices"] = sz.ChunkDevices
	out.record["chunks"] = len(chunks)
	inputs, size := sha256.New(), 0
	for _, c := range chunks {
		inputs.Write(c.body)
		size += len(c.body)
	}
	out.record["input_sha256"] = fmt.Sprintf("%x", inputs.Sum(nil))
	out.record["chunk_events_mean"] = float64(res.Events) / float64(len(chunks))
	out.record["chunk_bytes_mean"] = float64(size) / float64(len(chunks))
	out.record["uploads_per_read"] = sz.ReadEvery
	out.record["uploads"] = ph.uploads
	out.record["reads"] = ph.reads
	out.record["setup_s_all"] = setups
	out.record["setup_wall_s_all"] = setupWalls
	ph.diagnostics(out.record)

	if e.traced {
		if err := traceFleetIngest(ctx, e, out, client, d, chunks, &want, ph); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (v *fleetView) check(devices int, want ingestState) error {
	if v.Devices != devices || v.Events != want.events || v.Completed != want.completed || v.Misses != want.misses {
		return fmt.Errorf("daemon reports %d devices, %d events, %d completed, %d misses; sent %d devices, %d events, %d completed, %d misses",
			v.Devices, v.Events, v.Completed, v.Misses, devices, want.events, want.completed, want.misses)
	}
	return nil
}

// upload posts one chunk and checks that every event was acknowledged;
// acknowledged uploads are added to want.
func upload(client *http.Client, base string, c *chunk, want *ingestState) error {
	resp, err := client.Post(base+"/v1/fleet/ingest", "application/octet-stream", bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ack serve.FleetIngestResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		return err
	}
	if ack.Events != c.events || ack.Format != "binary" {
		return fmt.Errorf("acknowledged %d %s events, sent %d binary", ack.Events, ack.Format, c.events)
	}
	want.events += uint64(c.events)
	want.completed += uint64(c.completed)
	want.misses += uint64(c.misses)
	return nil
}

func readFleet(client *http.Client, base string) (*fleetView, error) {
	resp, err := client.Get(base + "/v1/fleet")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/fleet: status %d", resp.StatusCode)
	}
	var v fleetView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("GET /v1/fleet: %w", err)
	}
	return &v, nil
}

// ingestPhase is one timed closed-loop phase of uploads and reads.
type ingestPhase struct {
	tally
	uploads, reads   int
	events           int
	uploadCPUMS      []float64 // dvfsd CPU per upload
	readCPUMS        []float64
	uploadMS, readMS []float64 // client wall round trips
	cpu, wall        time.Duration
	clientCPU        time.Duration // the harness's own CPU over the phase
	steal            float64
}

// diagnostics records the ungated wall-clock numbers: upload and read
// round trips stretch with CPU steal (they are 10-30 ms of compute).
func (p *ingestPhase) diagnostics(rec map[string]any) {
	rec["client.jobs_per_s"] = float64(p.events) / p.wall.Seconds()
	rec["client.latency_samples"] = len(p.uploadMS)
	rec["client.upload_p50_ms"] = quantile(p.uploadMS, 0.5)
	for _, q := range []float64{0.9, 0.99} {
		if enoughTail(len(p.uploadMS), q) {
			rec[fmt.Sprintf("client.latency_p%g_ms", q*100)] = quantile(p.uploadMS, q)
		}
	}
	rec["client.read_samples"] = len(p.readMS)
	rec["client.read_p50_ms"] = quantile(p.readMS, 0.5)
	rec["serve.read_cpu_p50_ms"] = quantile(p.readCPUMS, 0.5)
	rec["host.steal_frac"] = p.steal
	rec["client.cpu_us_per_job"] = durUS(p.clientCPU) / float64(max(p.events, 1))
	rec["cpu_us_per_job_raw"] = p.cpuUSPerEvent()
	rec["latency_p50_ms_raw"] = median(p.uploadCPUMS)
	rec["host_speed_scale"] = p.hostSpeed()
}

func (p *ingestPhase) cpuUSPerEvent() float64 { return durUS(p.cpu) / float64(max(p.events, 1)) }

// ingestClientRefUS is the client's CPU per uploaded event at the
// reference host speed.
const ingestClientRefUS = 3.0

// hostSpeed scales this run's daemon CPU to the reference host speed,
// as predict's does: the client's CPU per event follows the host's
// speed.
func (p *ingestPhase) hostSpeed() float64 {
	return ingestClientRefUS / (durUS(p.clientCPU) / float64(max(p.events, 1)))
}

// ingestLoop is one client on one connection uploading the chunks round
// after round, with one GET /v1/fleet after every ReadEvery uploads.
// Each operation's dvfsd CPU is read around it: the client is the only
// one, so that is the operation's service time.
func ingestLoop(ctx context.Context, e *env, client *http.Client, d *daemon, chunks []chunk, want *ingestState, rec *recorder) *ingestPhase {
	ph := &ingestPhase{}
	pid := d.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		ph.fail("%v", err)
		return ph
	}
	ticks0 := readTicks()
	client0 := selfCPU()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	// timed runs one operation and returns dvfsd's CPU time and the
	// client's wall time around it, in ms.
	timed := func(name string, id int, call func() error) (cpu, wall float64, err error) {
		before, err := procCPU(pid)
		if err != nil {
			return 0, 0, err
		}
		s := rec.begin(name, -1, int64(id))
		t := time.Now()
		err = call()
		wall = durMS(time.Since(t))
		rec.end(s)
		after, cerr := procCPU(pid)
		if err == nil {
			err = cerr
		}
		return durMS(after - before), wall, err
	}
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		c := &chunks[i%len(chunks)]
		ph.attempted++
		cpu, wall, err := timed("client.upload", i, func() error { return upload(client, d.url, c, want) })
		if err != nil {
			ph.fail("upload %d: %v", i, err)
			continue
		}
		ph.uploads++
		ph.events += c.events
		ph.uploadMS = append(ph.uploadMS, wall)
		ph.uploadCPUMS = append(ph.uploadCPUMS, cpu)
		if (i+1)%e.sz.ReadEvery != 0 {
			continue
		}
		ph.attempted++
		cpu, wall, err = timed("client.read", i, func() error {
			_, err := readFleet(client, d.url)
			return err
		})
		if err != nil {
			ph.fail("read after upload %d: %v", i, err)
			continue
		}
		ph.reads++
		ph.readMS = append(ph.readMS, wall)
		ph.readCPUMS = append(ph.readCPUMS, cpu)
	}
	ph.wall = time.Since(t0)
	ph.clientCPU = selfCPU() - client0
	ph.steal = stealFrac(ticks0, readTicks())
	cpu1, err := procCPU(pid)
	if err != nil {
		ph.fail("%v", err)
		return ph
	}
	ph.cpu = cpu1 - cpu0
	return ph
}

// traceFleetIngest is the traced half: a traced client phase read
// against dvfsd's own per-route request durations, then the layers the
// ingest handler calls, timed in process on the workload's chunks:
// the streaming trace scan, and the fleet tracker, fleet SLO tracker,
// energy meter and drift monitor configured as dvfsd configures them.
func traceFleetIngest(ctx context.Context, e *env, out *outcome, client *http.Client, d *daemon,
	chunks []chunk, want *ingestState, untraced *ingestPhase) error {
	base := time.Now()
	rec := newRecorder(base)
	m0, err := d.metrics(client)
	if err != nil {
		return err
	}
	ph := ingestLoop(ctx, e, client, d, chunks, want, rec)
	m1, err := d.metrics(client)
	if err != nil {
		return err
	}
	out.add(ph.tally)
	L := out.layers
	perRoute := func(route string) (ms, n float64) {
		s0, n0 := routeDuration(m0, route)
		s1, n1 := routeDuration(m1, route)
		if n1 <= n0 {
			return 0, 0
		}
		return (s1 - s0) / (n1 - n0) * 1e3, n1 - n0
	}
	ingestMS, nIngest := perRoute("fleet_ingest")
	readMS, nRead := perRoute("fleet_status")
	L.set("serve.ingest_handler_ms", ingestMS, "ms")
	L.set("serve.read_handler_ms", readMS, "ms")
	if nIngest+nRead > 0 {
		shed := m1["dvfsd_shed_total"] - m0["dvfsd_shed_total"]
		L.set("serve.shed_frac", shed/(nIngest+nRead+shed), "fraction")
	}

	// The handler's layers, in process, over one round of chunks.
	plat := platform.ODROIDXU3A7()
	tracker := obs.NewFleetTracker(obs.FleetConfig{TopK: 10, EnergyPerJob: trace.EnergyEstimator()})
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01, MaxKeys: 64})
	meter := alert.NewEnergyMeter(alert.EnergyConfig{Platform: plat})
	drift := obs.NewDriftMonitor(obs.DriftConfig{})
	events := 0
	for i := range chunks {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var evs []obs.DecisionEvent
		s := rec.begin("trace.scan", -1, int64(i))
		err := trace.ScanBinary(bytes.NewReader(chunks[i].body), func(ev *obs.DecisionEvent) error {
			evs = append(evs, *ev)
			return nil
		})
		rec.end(s)
		if err != nil {
			return err
		}
		for j := range evs {
			ev := &evs[j]
			s = rec.begin("obs.fleet_emit", -1, int64(events))
			tracker.Emit(ev)
			rec.end(s)
			s = rec.begin("obs.slo", -1, int64(events))
			slo.ObserveEvent(ev)
			rec.end(s)
			s = rec.begin("alert.energy", -1, int64(events))
			meter.Emit(ev)
			rec.end(s)
			if ev.Done && ev.Predicted {
				s = rec.begin("obs.drift", -1, int64(events))
				drift.Observe("fleet:"+ev.Workload, ev.ResidualSec)
				rec.end(s)
			}
			events++
		}
	}
	for i := 0; i < 5; i++ {
		s := rec.begin("obs.fleet_snapshot", -1, int64(i))
		tracker.Snapshot()
		rec.end(s)
	}
	st := rec.stats()
	ev := float64(max(events, 1))
	L.set("trace.scan_us_per_event", durUS(st["trace.scan"].Total)/ev, "us")
	L.set("obs.fleet_emit_us", st["obs.fleet_emit"].meanSec()*1e6, "us")
	L.set("obs.fleet_snapshot_ms", st["obs.fleet_snapshot"].medianSec()*1e3, "ms")
	L.set("obs.slo_us", st["obs.slo"].meanSec()*1e6, "us")
	L.set("obs.drift_us", st["obs.drift"].meanSec()*1e6, "us")
	L.set("alert.energy_us", st["alert.energy"].meanSec()*1e6, "us")
	L.set("alert.energy_skipped_frac", float64(meter.Skipped())/ev, "fraction")
	L.set("client.jobs_per_s", float64(ph.events)/ph.wall.Seconds(), "1/s")
	L.set("client.latency_samples", float64(len(ph.uploadMS)), "count")
	L.set("client.latency_p90_ms", quantile(ph.uploadMS, 0.9), "ms")
	L.set("client.latency_p99_ms", quantile(ph.uploadMS, 0.99), "ms")
	L.set("host.steal_frac", ph.steal, "fraction")
	if u := median(untraced.uploadCPUMS); u > 0 {
		L.set("bench.trace_overhead_frac", median(ph.uploadCPUMS)/u-1, "fraction")
	}
	printSelfTable(os.Stdout, "fleet_ingest spans (client operations, then the handler's layers in process):", st)
	return writeSpans(e, "fleet_ingest", rec)
}
