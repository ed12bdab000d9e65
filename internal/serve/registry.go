// Package serve is the run-time serving tier for trained DVFS
// controllers — the deployment story of §4.2 ("train once, distribute
// the model, drive cpufreq at run time") turned into a daemon. A
// Registry owns the trained models (backed by the core.SaveController
// distribution format, persisted under a data directory), a Server
// exposes them over HTTP (train, upload, predict, metrics), and a
// load generator (Generate/RunLoad) replays seeded workload job
// streams against a daemon to measure serving throughput and latency.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Build states of a registry entry.
const (
	StateQueued   = "queued"
	StateBuilding = "building"
	StateReady    = "ready"
	StateFailed   = "failed"
)

// ErrQueueFull reports that the async build queue is at capacity; the
// server maps it to 503.
var ErrQueueFull = errors.New("serve: build queue full")

// ErrClosed reports that the registry is shutting down.
var ErrClosed = errors.New("serve: registry closed")

// TrainConfig is the client-settable subset of core.Config accepted by
// the train endpoint. Zero values select the paper's defaults.
type TrainConfig struct {
	ProfileJobs int     `json:"profile_jobs,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
	Gamma       float64 `json:"gamma,omitempty"`
	Margin      float64 `json:"margin,omitempty"`
	UseHints    bool    `json:"use_hints,omitempty"`
	// Async requests queued building: the endpoint returns 202
	// immediately instead of waiting for the build.
	Async bool `json:"async,omitempty"`
}

// ModelStatus is the externally visible state of one registry entry.
type ModelStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`
	// BuildSec is the wall-clock duration of the last completed build.
	BuildSec float64 `json:"build_sec,omitempty"`
	// Columns and Selected describe the servable model, when ready.
	Columns  int `json:"columns,omitempty"`
	Selected int `json:"selected,omitempty"`
	// Source is "train", "upload", or "disk".
	Source string `json:"source,omitempty"`
}

// entry is one registered model. The controller pointer is replaced
// wholesale on rebuild — a controller, once published, is immutable
// and safe for concurrent prediction (core.Controller.PredictTrace).
type entry struct {
	status ModelStatus
	ctl    *core.Controller
	// builtAt is when the servable controller was published (train
	// completion, upload, or disk load) — the model-age gauge's anchor.
	builtAt time.Time
}

// flight is a single-flight build: concurrent train requests for the
// same model join the one in-progress build instead of starting
// duplicates. done is closed when the build finishes and status holds
// the outcome.
type flight struct {
	done   chan struct{}
	status ModelStatus
}

// Wait blocks until the build completes or ctx expires. The bool
// reports completion; on false the returned status is the pre-wait
// snapshot passed in by the caller.
func (f *flight) Wait(ctx context.Context) (ModelStatus, bool) {
	select {
	case <-f.done:
		return f.status, true
	case <-ctx.Done():
		return ModelStatus{}, false
	}
}

// RegistryOptions configures NewRegistry.
type RegistryOptions struct {
	// Dir persists trained models as <name>.json; empty disables
	// persistence.
	Dir string
	// Plat is the serving platform; nil selects the ODROID-XU3 A7.
	Plat *platform.Platform
	// Switch is the switch-time table; nil measures one on Plat.
	Switch *platform.SwitchTable
	// Workers bounds concurrent builds; 0 selects 2.
	Workers int
	// QueueDepth bounds waiting builds; 0 selects 16.
	QueueDepth int
	// Seed drives switch-table measurement when Switch is nil.
	Seed int64
	// Observe, when non-nil, receives every build completion.
	Observe func(name string, seconds float64, err error)
	// Log receives structured build logs; nil discards them.
	Log *slog.Logger
}

// Registry holds the daemon's models: a name-keyed map of controllers
// with single-flight builds, a bounded worker pool, and JSON
// persistence in the core.SaveController distribution format.
type Registry struct {
	dir     string
	plat    *platform.Platform
	sw      *platform.SwitchTable
	observe func(string, float64, error)
	log     *slog.Logger

	mu      sync.RWMutex
	entries map[string]*entry
	flights map[string]*flight
	closed  bool

	queue chan *buildTask
	wg    sync.WaitGroup
}

type buildTask struct {
	name string
	tc   TrainConfig
	f    *flight
}

// NewRegistry builds a registry, loading any persisted models from
// opts.Dir, and starts the build worker pool.
func NewRegistry(opts RegistryOptions) (*Registry, error) {
	if opts.Plat == nil {
		opts.Plat = platform.ODROIDXU3A7()
	}
	if opts.Switch == nil {
		opts.Switch = platform.MeasureSwitchTable(opts.Plat, 500, 0.95, opts.Seed+97)
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	r := &Registry{
		dir:     opts.Dir,
		plat:    opts.Plat,
		sw:      opts.Switch,
		observe: opts.Observe,
		log:     opts.Log,
		entries: map[string]*entry{},
		flights: map[string]*flight{},
		queue:   make(chan *buildTask, opts.QueueDepth),
	}
	if r.dir != "" {
		if err := r.loadDir(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r, nil
}

// loadDir restores persisted models. Broken files are skipped with a
// warning — one corrupt model must not take the whole daemon down.
func (r *Registry) loadDir() error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating data dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(r.dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, path := range names {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		ctl, err := r.loadFile(name, path)
		if err != nil {
			r.log.Warn("skipping persisted model", "name", name, "err", err)
			continue
		}
		r.entries[name] = &entry{
			ctl:     ctl,
			builtAt: time.Now(),
			status: ModelStatus{
				Name: name, State: StateReady, Source: "disk",
				Columns: ctl.Schema.Dim(), Selected: len(ctl.SelectedFeatureNames()),
			},
		}
		r.log.Info("model loaded", "name", name, "path", path)
	}
	return nil
}

func (r *Registry) loadFile(name, path string) (*core.Controller, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadController(f, w, r.plat, r.sw)
}

// Get returns the servable controller for name. During a rebuild the
// previous controller keeps serving; the error describes the state
// when no controller has ever been published.
func (r *Registry) Get(name string) (*core.Controller, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.entries[name]
	if e == nil {
		return nil, fmt.Errorf("serve: model %q not found (train it with POST /v1/models/%s)", name, name)
	}
	if e.ctl == nil {
		if e.status.Error != "" {
			return nil, fmt.Errorf("serve: model %q is %s: %s", name, e.status.State, e.status.Error)
		}
		return nil, fmt.Errorf("serve: model %q is %s", name, e.status.State)
	}
	return e.ctl, nil
}

// Status returns the entry's status; ok is false for unknown names.
func (r *Registry) Status(name string) (ModelStatus, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.entries[name]; e != nil {
		return e.status, true
	}
	return ModelStatus{}, false
}

// List returns all entries sorted by name.
func (r *Registry) List() []ModelStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelStatus, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.status)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ready counts entries with a servable controller.
func (r *Registry) Ready() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if e.ctl != nil {
			n++
		}
	}
	return n
}

// QueueDepth returns the number of builds waiting for a worker.
func (r *Registry) QueueDepth() int { return len(r.queue) }

// ModelAges returns, for every servable model, the seconds elapsed
// since its controller was published (built, uploaded, or loaded from
// disk) — what the dvfsd_model_age_seconds gauge reports at scrape
// time.
func (r *Registry) ModelAges(now time.Time) map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.entries))
	for name, e := range r.entries {
		if e.ctl != nil {
			out[name] = now.Sub(e.builtAt).Seconds()
		}
	}
	return out
}

// Train requests a (re)build of name. All builds run on the bounded
// worker pool; concurrent requests for the same model are deduplicated
// onto one flight, whose Wait the caller may use for synchronous
// semantics. The returned status is the entry's state at enqueue time.
func (r *Registry) Train(name string, tc TrainConfig) (*flight, ModelStatus, error) {
	// Validate the workload before queueing: an unknown name must fail
	// fast, not occupy a worker.
	if _, err := workload.ByName(name); err != nil {
		return nil, ModelStatus{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ModelStatus{}, ErrClosed
	}
	if f := r.flights[name]; f != nil {
		// Single-flight: join the in-progress build.
		st := r.entries[name].status
		return f, st, nil
	}
	f := &flight{done: make(chan struct{})}
	e := r.entries[name]
	if e == nil {
		e = &entry{}
		r.entries[name] = e
	}
	e.status.Name = name
	e.status.State = StateQueued
	e.status.Error = ""
	e.status.Source = "train"
	task := &buildTask{name: name, tc: tc, f: f}
	select {
	case r.queue <- task:
	default:
		if e.ctl == nil {
			e.status.State = StateFailed
			e.status.Error = ErrQueueFull.Error()
		} else {
			e.status.State = StateReady
		}
		return nil, ModelStatus{}, ErrQueueFull
	}
	r.flights[name] = f
	return f, e.status, nil
}

func (r *Registry) worker() {
	defer r.wg.Done()
	for task := range r.queue {
		r.runBuild(task)
	}
}

// runBuild executes one queued build and publishes the outcome.
func (r *Registry) runBuild(task *buildTask) {
	r.mu.Lock()
	r.entries[task.name].status.State = StateBuilding
	r.mu.Unlock()

	t0 := time.Now()
	ctl, err := r.build(task.name, task.tc)
	dur := time.Since(t0).Seconds()
	if r.observe != nil {
		r.observe(task.name, dur, err)
	}

	r.mu.Lock()
	e := r.entries[task.name]
	e.status.BuildSec = dur
	if err != nil {
		e.status.State = StateFailed
		e.status.Error = err.Error()
		r.log.Error("model build failed", "name", task.name, "dur_sec", dur, "err", err)
	} else {
		e.ctl = ctl
		e.builtAt = time.Now()
		e.status.State = StateReady
		e.status.Error = ""
		e.status.Columns = ctl.Schema.Dim()
		e.status.Selected = len(ctl.SelectedFeatureNames())
		r.log.Info("model built", "name", task.name, "dur_sec", dur,
			"columns", ctl.Schema.Dim(), "selected", len(ctl.SelectedFeatureNames()))
	}
	task.f.status = e.status
	delete(r.flights, task.name)
	r.mu.Unlock()
	close(task.f.done)

	if err == nil && r.dir != "" {
		if perr := r.persist(task.name, ctl); perr != nil {
			r.log.Error("persisting model failed", "name", task.name, "err", perr)
		}
	}
}

func (r *Registry) build(name string, tc TrainConfig) (*core.Controller, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return core.Build(w, core.Config{
		Plat:        r.plat,
		Switch:      r.sw,
		ProfileJobs: tc.ProfileJobs,
		ProfileSeed: tc.Seed,
		Alpha:       tc.Alpha,
		Gamma:       tc.Gamma,
		Margin:      tc.Margin,
		UseHints:    tc.UseHints,
	})
}

// persist writes the controller atomically as <dir>/<name>.json.
func (r *Registry) persist(name string, ctl *core.Controller) error {
	tmp, err := os.CreateTemp(r.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := core.SaveController(tmp, ctl); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(r.dir, name+".json"))
}

// Upload registers a pre-trained model from its distribution JSON
// (core.SaveController format). The model must target the registry's
// platform; it becomes servable immediately.
func (r *Registry) Upload(name string, src io.Reader) (ModelStatus, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return ModelStatus{}, err
	}
	ctl, err := core.LoadController(src, w, r.plat, r.sw)
	if err != nil {
		return ModelStatus{}, err
	}
	st := ModelStatus{
		Name: name, State: StateReady, Source: "upload",
		Columns: ctl.Schema.Dim(), Selected: len(ctl.SelectedFeatureNames()),
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ModelStatus{}, ErrClosed
	}
	e := r.entries[name]
	if e == nil {
		e = &entry{}
		r.entries[name] = e
	}
	e.ctl = ctl
	e.builtAt = time.Now()
	e.status = st
	r.mu.Unlock()

	if r.dir != "" {
		if err := r.persist(name, ctl); err != nil {
			r.log.Error("persisting uploaded model failed", "name", name, "err", err)
		}
	}
	return st, nil
}

// Close drains the build pool: no new builds are accepted, already
// queued and in-flight builds run to completion, then the workers
// exit. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	close(r.queue)
	r.mu.Unlock()
	r.wg.Wait()
}
