// Command dvfsd is the model-serving daemon: it owns a registry of
// trained DVFS controllers (the §4.2 "distribute the trained model"
// artifacts) and answers prediction queries over HTTP — the online
// half of an offline-train / online-query service.
//
// Usage:
//
//	dvfsd -addr 127.0.0.1:8090 -data ./models [-platform a7]
//	      [-workers 2] [-queue 16] [-max-inflight 256] [-timeout 30s]
//
// Endpoints: POST /v1/models/{name} (train, or ?mode=upload),
// GET /v1/models, POST /v1/predict, POST /v1/predict/batch,
// GET /v1/events (live decision stream as Server-Sent Events,
// filterable with ?workload=&since=&last=; dvfstrace -follow tails
// it), POST /v1/fleet/ingest (fleet decision traces, JSONL or binary;
// feeds per-device health scoring, the keyed deadline-miss SLO, the
// energy meter and the drift monitor), GET /v1/fleet (the fleet
// snapshot as JSON), GET /v1/query (range queries over the embedded
// telemetry history; see the -tsdb-* flags), GET /v1/alerts (live
// alert state and the incident history; rules evaluate on every
// telemetry scrape, so -tsdb-scrape 0 turns alerting off; see -rules,
// -incident-log, -alert-webhook, -energy-budget), GET /healthz, GET
// /metrics (Prometheus text format, including the fleet gauges, the
// SLO burn rates and the model under-prediction rates), and the debug
// routes, which -debug=false removes: GET /debug/decisions (recent
// decision events as JSON, same filter params), GET /debug/slo (the
// fleet SLO's burn rates per key), GET /debug/dash (the one
// self-contained, auto-refreshing HTML operations page: decisions,
// fleet health, SLO burn, alerts and incidents, energy, drift and
// telemetry history, each section rendered from what the JSON
// endpoints serve) plus the net/http/pprof handlers under
// /debug/pprof/.
//
// Deadline-miss SLO tracking (-slo-target) watches ingested fleet
// traces only: a served prediction's job runs on the client and never
// reports whether it met its deadline. The tracker's burn rates are
// exported as dvfsd_slo_burn_rate{key,window}, and the alert engine's
// builtin slo_burn rule is what alerts on them.
//
// Model drift is likewise measured on ingested residuals only: the
// drift monitor's per-workload under-prediction rate is exported as
// dvfsd_model_under_rate{workload}, and the builtin model_stale rule
// decides staleness. The alert engine writes the one log record per
// firing or resolved transition; -alert-webhook adds a notifier.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener drains
// in-flight requests, then the registry drains in-flight builds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

func main() {
	var cfg config
	cfg.bind(flag.CommandLine)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	log, err := logFlags.Logger(os.Stderr)
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsd:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, log); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsd:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks validation errors that warrant the usage text.
var errUsage = errors.New("invalid usage")

// config is dvfsd's command line: bind registers one flag per field,
// and validate checks the values before anything starts.
type config struct {
	// Serving.
	addr, data, platform, preload string
	workers, queue, maxInflight   int
	timeout                       time.Duration
	seed                          int64
	// Decision tracing.
	trace                  string
	debug                  bool
	streamQueue, spanEvery int
	// Fleet observability.
	sloTarget      float64
	fleetTopK      int
	fleetMaxIngest int64
	// Telemetry history, alerting and energy metering.
	tsdbScrape, tsdbRetention, tsdbBlock      time.Duration
	tsdbDir, rules, incidentLog, alertWebhook string
	energyBudget                              float64
}

// bind registers dvfsd's flags on fs, with their defaults, into c.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8090", "listen address")
	fs.StringVar(&c.data, "data", "", "model persistence directory (empty = in-memory only)")
	fs.StringVar(&c.platform, "platform", "a7", "platform model: a7, x86, biglittle")
	fs.IntVar(&c.workers, "workers", 2, "concurrent model builds")
	fs.IntVar(&c.queue, "queue", 16, "queued model builds before 503")
	fs.IntVar(&c.maxInflight, "max-inflight", 256, "concurrent requests before shedding with 429")
	fs.DurationVar(&c.timeout, "timeout", 30*time.Second, "per-request timeout")
	fs.Int64Var(&c.seed, "seed", 1, "seed for switch-table measurement")
	fs.StringVar(&c.preload, "preload", "", "comma-separated workloads to train at startup")
	fs.StringVar(&c.trace, "trace", "", "append decision events as JSONL to this path (dvfstrace reads it)")
	fs.BoolVar(&c.debug, "debug", true, "serve /debug/decisions, /debug/slo, /debug/dash and /debug/pprof/")
	fs.Float64Var(&c.sloTarget, "slo-target", 0.01, "deadline-miss SLO target for ingested fleet traces (0 disables burn-rate tracking)")
	fs.IntVar(&c.streamQueue, "stream-queue", 256, "queued events per /v1/events subscriber before dropping (0 disables streaming)")
	fs.IntVar(&c.spanEvery, "span-every", 1, "capture a per-phase span ledger on every Nth decision (1 = all)")
	fs.IntVar(&c.fleetTopK, "fleet-topk", 10, "worst devices surfaced by the fleet tracker")
	fs.Int64Var(&c.fleetMaxIngest, "fleet-max-ingest", 0, "byte limit for /v1/fleet/ingest bodies (0 = 256 MiB)")
	fs.DurationVar(&c.tsdbScrape, "tsdb-scrape", 5*time.Second, "telemetry history scrape interval; alert rules evaluate on each tick (0 disables the embedded time-series store and alerting)")
	fs.StringVar(&c.tsdbDir, "tsdb-dir", "", "telemetry history directory (empty = in-memory only; dvfstsdb inspects it offline)")
	fs.DurationVar(&c.tsdbRetention, "tsdb-retention", 6*time.Hour, "telemetry history retention (negative = keep forever)")
	fs.DurationVar(&c.tsdbBlock, "tsdb-block", 10*time.Minute, "telemetry history block duration (crash-loss bound per series)")
	fs.StringVar(&c.rules, "rules", "", "alert rules file (JSON), merged with the built-in rules")
	fs.StringVar(&c.incidentLog, "incident-log", "", "append-only incident journal, replayed on restart so firing alerts survive a crash")
	fs.StringVar(&c.alertWebhook, "alert-webhook", "", "POST firing/resolved alert transitions to this URL (retried with backoff)")
	fs.Float64Var(&c.energyBudget, "energy-budget", 0, "average-power budget in watts for energy-burn tracking (0 disables)")
}

// validate rejects flag values no daemon should start with. Names
// that need a lookup (-platform, -preload, -rules) are resolved, and
// rejected, by run.
func (c *config) validate() error {
	switch {
	case c.sloTarget < 0 || c.sloTarget >= 1:
		return errors.New("-slo-target must be in [0, 1)")
	case c.spanEvery < 0:
		return errors.New("-span-every must be >= 0")
	case c.fleetTopK < 0 || c.fleetMaxIngest < 0:
		return errors.New("-fleet-topk and -fleet-max-ingest must be non-negative")
	case c.tsdbScrape < 0 || c.tsdbBlock < 0:
		return errors.New("-tsdb-scrape and -tsdb-block must be non-negative")
	case c.energyBudget < 0:
		return errors.New("-energy-budget must be non-negative")
	case (c.rules != "" || c.incidentLog != "" || c.alertWebhook != "") && c.tsdbScrape == 0:
		return errors.New("-rules, -incident-log, and -alert-webhook need -tsdb-scrape > 0 (rules evaluate over the telemetry store)")
	}
	return nil
}

func run(cfg config, log *slog.Logger) error {
	// Resolve the named platform and workloads before anything starts:
	// a daemon must not come up half configured.
	plat, err := platform.ByName(cfg.platform)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	var preloads []string
	if cfg.preload != "" {
		for _, name := range strings.Split(cfg.preload, ",") {
			name = strings.TrimSpace(name)
			if _, err := workload.ByName(name); err != nil {
				return fmt.Errorf("%w: -preload: %v", errUsage, err)
			}
			preloads = append(preloads, name)
		}
	}

	metrics := serve.NewMetrics()

	// Decision tracing: the ring always backs /debug/decisions; a
	// JSONL sink is attached when -trace names a file. Served
	// predictions are one-shot events: the job runs client-side, so no
	// deadline outcome or residual ever reaches the tracer.
	var sinks []obs.Sink
	if cfg.trace != "" {
		f, err := os.OpenFile(cfg.trace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace file: %w", err)
		}
		defer f.Close()
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	// Live streaming: the broadcaster is both a tracer sink (every
	// emitted decision fans out) and the server's /v1/events source
	// (each subscriber gets a bounded queue; slow readers drop rather
	// than block the decision path).
	var stream *obs.Broadcaster
	if cfg.streamQueue > 0 {
		stream = obs.NewBroadcaster(obs.BroadcasterOptions{
			QueueSize: cfg.streamQueue,
			Dropped: metrics.Registry().Counter("obs_stream_dropped_total",
				"Decision events dropped because a /v1/events subscriber fell behind."),
		})
		sinks = append(sinks, stream)
	}
	// Online energy metering: every traced decision accrues modeled
	// joules per (workload, device) stream — the live counterpart of
	// dvfsreplay's offline reconstruction. The meter is a tracer sink
	// for this daemon's own decisions; fleet-ingested events reach it
	// through the server.
	energy := alert.NewEnergyMeter(alert.EnergyConfig{
		Platform: plat,
		BudgetW:  cfg.energyBudget,
	})
	sinks = append(sinks, energy)
	tracer := obs.NewTracer(obs.TracerOptions{Sinks: sinks})
	defer func() {
		if err := tracer.Close(); err != nil {
			log.Error("closing decision trace", "err", err)
		}
	}()

	reg, err := serve.NewRegistry(serve.RegistryOptions{
		Dir:        cfg.data,
		Plat:       plat,
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		Seed:       cfg.seed,
		Log:        log,
		Observe: func(name string, sec float64, err error) {
			metrics.ObserveBuild(sec, err)
		},
	})
	if err != nil {
		return err
	}
	// Fleet observability: ingested device traces are the only
	// completed jobs this daemon sees, so they feed the device-health
	// tracker, the keyed deadline-miss SLO (fleet / platform:* /
	// workload:*), and the drift monitor whose under-prediction rates
	// the builtin model_stale rule watches.
	drift := obs.NewDriftMonitor(obs.DriftConfig{})
	fleetTracker := obs.NewFleetTracker(obs.FleetConfig{
		TopK:         cfg.fleetTopK,
		EnergyPerJob: trace.EnergyEstimator(),
	})
	var fleetSLO *obs.SLOTracker
	if cfg.sloTarget > 0 {
		fleetSLO = obs.NewSLOTracker(obs.SLOConfig{Target: cfg.sloTarget, MaxKeys: 64})
	}

	// Telemetry history: an embedded Gorilla-compressed store scraped
	// from the shared registry. Opened before the server so GET
	// /v1/query and /debug/dash's history windows can reach it; the
	// scrape loop starts after the server exists because each tick also
	// refreshes the sync-on-read gauges.
	var store *tsdb.Store
	if cfg.tsdbScrape > 0 {
		store, err = tsdb.Open(tsdb.Options{
			Dir:       cfg.tsdbDir,
			BlockDur:  cfg.tsdbBlock,
			Retention: cfg.tsdbRetention,
		})
		if err != nil {
			reg.Close()
			return fmt.Errorf("opening telemetry store: %w", err)
		}
		defer func() {
			if err := store.Close(); err != nil {
				log.Error("closing telemetry store", "err", err)
			}
		}()
	}

	// Declarative alerting: rules (built-ins plus an optional -rules
	// file) evaluate range queries over the telemetry store at the end
	// of every scrape tick, driving a pending→firing→resolved state
	// machine with notifications and a crash-safe incident journal.
	var engine *alert.Engine
	if store != nil {
		rules := alert.BuiltinRules(alert.BuiltinOptions{
			Scrape:       cfg.tsdbScrape,
			EnergyBudget: cfg.energyBudget > 0,
		})
		if cfg.rules != "" {
			extra, err := alert.LoadRules(cfg.rules)
			if err != nil {
				reg.Close()
				return fmt.Errorf("%w: -rules: %v", errUsage, err)
			}
			rules = append(rules, extra...)
		}
		// The engine logs every firing and resolved transition itself;
		// the webhook is the one notifier.
		var notifiers []alert.Notifier
		if cfg.alertWebhook != "" {
			notifiers = append(notifiers, alert.NewWebhookNotifier(cfg.alertWebhook, alert.WebhookOptions{Log: log}))
		}
		engine, err = alert.New(alert.Config{
			Querier:     store,
			Rules:       rules,
			Notifiers:   notifiers,
			IncidentLog: cfg.incidentLog,
			Log:         log,
		})
		if err != nil {
			reg.Close()
			return fmt.Errorf("alert engine: %w", err)
		}
		defer func() {
			if err := engine.Close(); err != nil {
				log.Error("closing alert engine", "err", err)
			}
		}()
		log.Info("alerting enabled", "rules", len(rules),
			"incident_log", cfg.incidentLog, "webhook", cfg.alertWebhook != "")
	}

	srv := serve.NewServer(reg, serve.ServerOptions{
		Log:            log,
		Metrics:        metrics,
		RequestTimeout: cfg.timeout,
		MaxInflight:    cfg.maxInflight,
		Tracer:         tracer,
		EnableDebug:    cfg.debug,
		Stream:         stream,
		SpanEvery:      cfg.spanEvery,
		Fleet:          fleetTracker,
		FleetSLO:       fleetSLO,
		MaxIngestBytes: cfg.fleetMaxIngest,
		History:        store,
		Alerts:         engine,
		Energy:         energy,
		Drift:          drift,
	})
	if store != nil {
		runtimeC := obs.NewRuntimeCollector(metrics.Registry())
		scraper := tsdb.NewScraper(store, metrics.Registry(), cfg.tsdbScrape, func() {
			runtimeC.Collect()
			srv.SyncGauges()
		})
		// Rules evaluate after the tick's samples land, so each
		// evaluation sees the state it just scraped.
		scraper.After = engine.Eval
		scrapeCtx, scrapeStop := context.WithCancel(context.Background())
		scrapeDone := make(chan struct{})
		go func() {
			scraper.Run(scrapeCtx)
			close(scrapeDone)
		}()
		// Stop the scrape loop before the deferred store.Close seals the
		// heads, so no tick lands on a closed disk log.
		defer func() {
			scrapeStop()
			<-scrapeDone
		}()
		log.Info("telemetry history enabled", "interval", cfg.tsdbScrape.String(),
			"dir", cfg.tsdbDir, "retention", cfg.tsdbRetention.String())
	}
	for _, name := range preloads {
		if _, _, err := reg.Train(name, serve.TrainConfig{Seed: cfg.seed}); err != nil {
			return fmt.Errorf("preloading %s: %w", name, err)
		}
		log.Info("preload queued", "name", name)
	}

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Listen before logging so -addr :0 reports the resolved port —
	// tests (and scripts) parse it from the startup line.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		reg.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Info("dvfsd listening", "addr", ln.Addr().String(), "platform", plat.Name, "data", cfg.data)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		reg.Close()
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down: draining requests and builds")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Error("listener shutdown", "err", err)
	}
	reg.Close()
	log.Info("dvfsd stopped")
	return nil
}
