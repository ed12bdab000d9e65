# Local mirror of .github/workflows/ci.yml's correctness gate: `make
# check` runs gofmt, vet, build, the race-enabled tests, perfbench's
# vet and short tests, the goldens, lint and the alloc gate. It leaves
# out CI's daemon and pipeline smokes (trace-, dash-, replay-, fleet-,
# fleet-obs-, tsdb- and alert-smoke), its bench gates (obs-, serve-,
# replay-, fleet- and tsdb-bench, and the one-iteration benchmark
# runs) and the 20 s fuzz step.

.PHONY: check fmt vet build test perfbench-check lint alloc-gate golden bench serve-bench obs-bench trace-smoke replay-smoke replay-bench dash-smoke fleet-smoke fleet-bench fleet-obs-smoke tsdb-smoke tsdb-bench alert-smoke

check: fmt vet build test perfbench-check golden lint alloc-gate

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# go vet plus the self-hosted analyzer suite (cmd/dvfsvet):
# hotpathalloc, noblock, lockdiscipline, clockdiscipline over the
# module's own annotated code.
vet:
	go vet ./...
	go run ./cmd/dvfsvet ./...

# Runtime half of the hotpathalloc guarantee: AllocsPerRun == 0 on the
# core decision path, span capture, and the feature hash. Run without
# -race — the detector's instrumentation allocates, so these tests
# skip themselves under it.
alloc-gate:
	go test -count=1 -run 'TestPredictTraceZeroAlloc' ./internal/core
	go test -count=1 -run 'TestSpanCaptureZeroAlloc|TestFeatureHashZeroAlloc|TestSketchAddZeroAlloc|TestHeavyHittersZeroAlloc' ./internal/obs
	go test -count=1 -run 'TestBinaryEncodeZeroAlloc' ./internal/trace
	go test -count=1 -run 'TestAppendZeroAlloc|TestEncoderZeroAlloc' ./internal/tsdb
	go test -count=1 -run 'TestEnergyMeterZeroAlloc' ./internal/alert

build:
	go build ./...

test:
	go test -race ./...

# perfbench is its own module, so vet, build and test above never
# compile it.
perfbench-check:
	cd perfbench && go vet ./... && go test -short ./...

lint:
	go run ./cmd/dvfslint -workload all

bench:
	go test -bench=. -benchmem .

# Golden decision logs: SHA-256 digests of the 16 dvfssim JSONL and
# Chrome logs (8 workload/governor/platform configurations, with and
# without -idle; xpilot's idle run uses movingavg, since powersave
# already sits at the minimum level) and of two dvfsfleet binary traces
# at 1, 2 and 8 workers, checked against
# testdata/golden/decision-logs.sha256. Every output is hashed as
# written: a simulated log holds no host time. The replay leg pins the
# text, JSON and HTML reports dvfsreplay writes at seeds 1, 2 and 7 for
# the 16 dvfssim logs and both fleet traces, and with -slo-target 0.01
# at seed 1 for the fleet traces
# (testdata/golden/replay-reports.sha256), and the dvfstrace leg the
# text and JSON reports dvfstrace writes for the same 18 logs, plus the
# -by-device 10 reports of both fleet traces
# (testdata/golden/trace-reports.sha256). Beside them, the full text
# of every `dvfsbench` experiment at seed 1, one file each under
# testdata/golden/dvfsbench (under -race, only multitask and
# placement). A change that moves an output on purpose regenerates
# the files with `make golden UPDATE=1` in the same diff.
golden:
	go test -count=1 -run '^TestGolden$$' ./cmd/dvfssim ./cmd/dvfsreplay ./cmd/dvfstrace ./cmd/dvfsbench $(if $(UPDATE),-update)

# Decision-path instrumentation budget: §3.4 charges the predictor's
# cost against every job's budget, so tracing must stay well under
# 1 µs/event. Two gates: the bare emit and full span capture (the
# ledger dvfsd builds for every served decision, ~5 monotonic clock
# reads) must each stay under 1000 ns/op. The test binary is built
# once and runs both benchmarks in 5 alternating rounds, and each gate
# reads the per-benchmark median, so one noisy round cannot fail it.
obs-bench:
	@go test -c -o /tmp/obs-bench.test ./internal/obs
	@rounds=5; rm -f /tmp/obs-bench.out; \
	for round in $$(seq $$rounds); do \
		/tmp/obs-bench.test -test.run '^$$' -test.bench '^BenchmarkTracerEmit' -test.benchtime 300ms \
			-test.benchmem | grep '^Benchmark' | tee -a /tmp/obs-bench.out; \
	done; \
	python3 -c "import re, statistics, sys; \
rounds = int(sys.argv[1]); \
runs = re.findall(r'^BenchmarkTracerEmit(\w*?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op', open('/tmp/obs-bench.out').read(), re.M); \
assert len(runs) == 2 * rounds, f'obs-bench: want {rounds} runs of each of 2 benchmarks, got {len(runs)} runs'; \
base, full = (statistics.median(float(ns) for name, ns in runs if name == b) for b in ('', 'Spans')); \
fails = [msg for bad, msg in ( \
    (base >= 1000, f'emit median {base:.0f} ns/op exceeds the 1000 ns/op budget'), \
    (full >= 1000, f'full span capture median {full:.0f} ns/op exceeds the 1000 ns/op budget')) if bad]; \
assert not fails, 'obs-bench: ' + '; '.join(fails); \
print(f'obs-bench: medians of {rounds} rounds: emit {base:.0f}, +spans {full:.0f} ns/op, within budget')" $$rounds

# Observability smoke: simulate with a decision log, then analyze it.
trace-smoke:
	go run ./cmd/dvfssim -workload sha -governor prediction -jobs 100 -trace /tmp/trace-smoke.jsonl
	go run ./cmd/dvfstrace -input /tmp/trace-smoke.jsonl
	go run ./cmd/dvfstrace -input /tmp/trace-smoke.jsonl -format json > /dev/null

# Counterfactual-replay smoke: trace a prediction run, replay it with
# the energy-ordering assertion (oracle ≤ traced ≤ performance), and
# prove the report is bit-identical across runs of the same trace+seed.
# The x86 and big.LITTLE legs replay without -platform: each report
# header must name the platform the trace was recorded on.
replay-smoke:
	go build -o bin/dvfssim ./cmd/dvfssim
	go build -o bin/dvfsreplay ./cmd/dvfsreplay
	./bin/dvfssim -workload sha -governor prediction -jobs 100 -trace /tmp/replay-smoke.jsonl
	./bin/dvfsreplay -input /tmp/replay-smoke.jsonl -check -html /tmp/replay-smoke.html > /tmp/replay-smoke-1.txt
	./bin/dvfsreplay -input /tmp/replay-smoke.jsonl -check > /tmp/replay-smoke-2.txt
	cmp /tmp/replay-smoke-1.txt /tmp/replay-smoke-2.txt
	grep -q '^replay      platform odroid-xu3-a7,' /tmp/replay-smoke-1.txt
	./bin/dvfssim -workload sha -governor prediction -platform x86 -jobs 100 -trace /tmp/replay-smoke-x86.jsonl
	./bin/dvfsreplay -input /tmp/replay-smoke-x86.jsonl -check > /tmp/replay-smoke-x86.txt
	grep -q '^replay      platform x86-i7,' /tmp/replay-smoke-x86.txt
	./bin/dvfssim -workload uzbl -governor prediction -platform biglittle -jobs 100 -trace /tmp/replay-smoke-biglittle.jsonl
	./bin/dvfsreplay -input /tmp/replay-smoke-biglittle.jsonl -check > /tmp/replay-smoke-biglittle.txt
	grep -q '^replay      platform odroid-xu3-biglittle,' /tmp/replay-smoke-biglittle.txt
	@echo "replay-smoke: ordering holds on a7, x86 and big.LITTLE traces, each replayed on its own platform, and output is bit-identical"

# Replay benchmark: seeded ldecode trace → BENCH_replay.json, compared
# against the committed baseline (fails on >5% energy / >5-point miss
# regression). Regenerate the baseline by copying the fresh document.
replay-bench:
	go build -o bin/dvfssim ./cmd/dvfssim
	go build -o bin/dvfsreplay ./cmd/dvfsreplay
	./bin/dvfssim -workload ldecode -governor prediction -jobs 200 -seed 1 -trace /tmp/replay-bench.jsonl
	./bin/dvfsreplay -input /tmp/replay-bench.jsonl -seed 1 -json BENCH_replay.new.json \
		-baseline BENCH_replay.json -max-regress 5 > /dev/null

# Fleet smoke: simulate a heterogeneous fleet into a binary trace,
# prove determinism (same seed, same bytes), analyze and convert the
# trace (binary -> jsonl -> binary must be byte-identical, and the
# binary must stay >= 5x smaller than JSONL), run the fleet-wide
# counterfactual margin sweep, and finish with a 100k-device
# aggregate-only run — the scale criterion from the fleet issue.
FLEET_SMOKE_DEVICES ?= 100000

fleet-smoke:
	go build -o bin/dvfsfleet ./cmd/dvfsfleet
	go build -o bin/dvfstrace ./cmd/dvfstrace
	go build -o bin/dvfsreplay ./cmd/dvfsreplay
	./bin/dvfsfleet -devices 200 -platforms a7,x86 -workload-mix sha:3,rijndael:1 \
		-jobs 10 -seed 42 -progress 0 -out /tmp/fleet-smoke.bin -bench /tmp/fleet-smoke-bench.json
	./bin/dvfsfleet -devices 200 -platforms a7,x86 -workload-mix sha:3,rijndael:1 \
		-jobs 10 -seed 42 -progress 0 -out /tmp/fleet-smoke-2.bin > /dev/null
	cmp /tmp/fleet-smoke.bin /tmp/fleet-smoke-2.bin
	./bin/dvfstrace -input /tmp/fleet-smoke.bin > /dev/null
	./bin/dvfstrace -input /tmp/fleet-smoke.bin -convert /tmp/fleet-smoke.jsonl
	./bin/dvfstrace -input /tmp/fleet-smoke.jsonl -convert /tmp/fleet-smoke-back.bin -convert-format binary
	cmp /tmp/fleet-smoke.bin /tmp/fleet-smoke-back.bin
	@jsonl=$$(wc -c < /tmp/fleet-smoke.jsonl); bin=$$(wc -c < /tmp/fleet-smoke.bin); \
	ratio=$$((jsonl / bin)); \
	if [ $$ratio -lt 5 ]; then \
		echo "fleet-smoke: binary trace only $${ratio}x smaller than JSONL ($$bin vs $$jsonl bytes, need >= 5x)"; exit 1; \
	fi; \
	echo "fleet-smoke: binary $$bin B vs JSONL $$jsonl B ($${ratio}x)"
	./bin/dvfsreplay -input /tmp/fleet-smoke.bin -html /tmp/fleet-smoke.html > /tmp/fleet-smoke-replay.txt
	grep -q 'fleet replay  200 devices' /tmp/fleet-smoke-replay.txt
	grep -q 'Margin sweep' /tmp/fleet-smoke.html
	./bin/dvfsfleet -devices $(FLEET_SMOKE_DEVICES) -platforms a7,x86 \
		-workload-mix sha:3,rijndael:1 -seed 42 -progress 4
	@echo "fleet-smoke: trace round trip, fleet replay, and $(FLEET_SMOKE_DEVICES)-device run pass"

# Fleet benchmark: devices/sec throughput plus the binary-vs-JSONL
# encoding comparison, written as BENCH_fleet.new.json and compared
# against the committed BENCH_fleet.json baseline (fails if the
# jsonl-to-binary ratio drops below 5 or binary bytes/event grows more
# than 10%; throughput is recorded, not gated). The same trace then
# replays with 1 and $(FLEET_REPLAY_WORKERS) workers: the reports must
# be byte-identical (the in-order-commit contract) and the measured
# speedup lands in the bench document beside the host (CPUs,
# GOMAXPROCS, Go version). The ≥4x speedup floor is only asserted on
# machines with ≥ 8 CPUs — a 1-core CI runner can prove determinism
# but not parallelism.
# Regenerate the baseline by copying the fresh document.
FLEET_BENCH_DEVICES ?= 2000
FLEET_REPLAY_WORKERS ?= 8

fleet-bench:
	go build -o bin/dvfsfleet ./cmd/dvfsfleet
	go build -o bin/dvfsreplay ./cmd/dvfsreplay
	./bin/dvfsfleet -devices $(FLEET_BENCH_DEVICES) -platforms a7,x86 \
		-workload-mix sha:3,rijndael:1 -jobs 10 -seed 42 -progress 0 \
		-out /tmp/fleet-bench.bin -bench BENCH_fleet.new.json > /dev/null
	@gover=$$(go env GOVERSION); \
	t0=$$(date +%s%N); \
	./bin/dvfsreplay -input /tmp/fleet-bench.bin -workers 1 > /tmp/fleet-replay-w1.txt; \
	t1=$$(date +%s%N); \
	./bin/dvfsreplay -input /tmp/fleet-bench.bin -workers $(FLEET_REPLAY_WORKERS) > /tmp/fleet-replay-wn.txt; \
	t2=$$(date +%s%N); \
	cmp /tmp/fleet-replay-w1.txt /tmp/fleet-replay-wn.txt \
		|| { echo "fleet-bench: replay reports differ across worker counts"; exit 1; }; \
	python3 -c "import json, os; \
doc = json.load(open('BENCH_fleet.new.json')); \
s1 = ($$t1 - $$t0) / 1e9; sn = ($$t2 - $$t1) / 1e9; \
doc['replay_workers'] = $(FLEET_REPLAY_WORKERS); \
doc['replay_seconds_w1'] = s1; \
doc['replay_seconds_wn'] = sn; \
doc['replay_speedup'] = s1 / sn if sn > 0 else 0.0; \
doc['replay_cpus'] = os.cpu_count(); \
doc['go_version'] = '$$gover'; \
json.dump(doc, open('BENCH_fleet.new.json', 'w'), indent=2); \
assert os.cpu_count() < 8 or doc['replay_speedup'] >= 4, \
    f\"fleet-bench: replay speedup {doc['replay_speedup']:.2f}x below the 4x floor on {os.cpu_count()} CPUs\"; \
print(f\"fleet-bench: replay w1 {s1:.2f}s, w$(FLEET_REPLAY_WORKERS) {sn:.2f}s \" \
      f\"({doc['replay_speedup']:.2f}x on {os.cpu_count()} CPUs), reports byte-identical\")"
	@python3 -c "import json; \
new = json.load(open('BENCH_fleet.new.json')); \
base = json.load(open('BENCH_fleet.json')); \
ratio = new['jsonl_to_binary_ratio']; \
assert ratio >= 5, f'fleet-bench: compression ratio {ratio:.2f}x below the 5x floor'; \
drift = new['binary_bytes_per_event'] / base['binary_bytes_per_event']; \
assert drift <= 1.1, f'fleet-bench: binary bytes/event grew {drift:.2f}x over baseline'; \
print(f\"fleet-bench: {new['devices_per_sec']:.0f} devices/sec, \" \
      f\"{new['binary_bytes_per_event']:.1f} B/event binary vs \" \
      f\"{new['jsonl_bytes_per_event']:.1f} B/event JSONL ({ratio:.2f}x)\")"

# Fleet-observability smoke: simulate a fleet with inline health
# scoring, roll the trace up offline with dvfstrace -by-device, prove
# the parallel fleet replay is byte-identical across worker counts
# (with the keyed SLO burn section rendered), then boot dvfsd, ingest
# the same binary trace over HTTP, and assert the ingest ack (all 120
# devices, the same event total as the snapshot), the fleet sections of
# /debug/dash, the /v1/fleet snapshot, and the fleet Prometheus gauges
# all serve it live.
FLEET_OBS_ADDR ?= 127.0.0.1:8095

fleet-obs-smoke:
	go build -o bin/dvfsfleet ./cmd/dvfsfleet
	go build -o bin/dvfstrace ./cmd/dvfstrace
	go build -o bin/dvfsreplay ./cmd/dvfsreplay
	go build -o bin/dvfsd ./cmd/dvfsd
	./bin/dvfsfleet -devices 120 -platforms a7,x86 -workload-mix sha:3,rijndael:1 \
		-jobs 10 -seed 42 -progress 0 -topk 5 -out /tmp/fleet-obs.bin > /tmp/fleet-obs-sim.txt
	grep -q 'worst devices by health score' /tmp/fleet-obs-sim.txt || \
		grep -q 'health ' /tmp/fleet-obs-sim.txt
	./bin/dvfstrace -input /tmp/fleet-obs.bin -by-device 5 > /tmp/fleet-obs-bydev.txt
	grep -q 'worst devices by health score' /tmp/fleet-obs-bydev.txt
	./bin/dvfstrace -input /tmp/fleet-obs.bin -by-device 5 -format json | \
		python3 -c "import json, sys; s = json.load(sys.stdin); assert s['devices'] == 120, s['devices']"
	./bin/dvfsreplay -input /tmp/fleet-obs.bin -workers 1 -slo-target 0.01 > /tmp/fleet-obs-replay-w1.txt
	./bin/dvfsreplay -input /tmp/fleet-obs.bin -workers 4 -slo-target 0.01 > /tmp/fleet-obs-replay-w4.txt
	cmp /tmp/fleet-obs-replay-w1.txt /tmp/fleet-obs-replay-w4.txt
	grep -q 'slo burn' /tmp/fleet-obs-replay-w1.txt
	@./bin/dvfsd -addr $(FLEET_OBS_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(FLEET_OBS_ADDR)/healthz > /dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -fsS --data-binary @/tmp/fleet-obs.bin http://$(FLEET_OBS_ADDR)/v1/fleet/ingest > /tmp/fleet-obs-ack.json \
		&& grep -q '"format":"binary"' /tmp/fleet-obs-ack.json \
		|| { echo "fleet-obs-smoke: binary ingest failed"; exit 1; }; \
	curl -fsS http://$(FLEET_OBS_ADDR)/v1/fleet > /tmp/fleet-obs-status.json \
		&& python3 -c "import json; a = json.load(open('/tmp/fleet-obs-ack.json')); s = json.load(open('/tmp/fleet-obs-status.json')); \
			assert s['devices'] == 120, s['devices']; assert a['devices'] == 120, a; assert a['events'] == s['events'], (a, s['events'])" \
		|| { echo "fleet-obs-smoke: ingest ack or /v1/fleet snapshot wrong"; exit 1; }; \
	curl -fsS http://$(FLEET_OBS_ADDR)/debug/dash > /tmp/fleet-obs-dash.html; \
	grep -q 'Worst devices' /tmp/fleet-obs-dash.html \
		|| { echo "fleet-obs-smoke: /debug/dash missing the worst-devices table"; exit 1; }; \
	grep -q 'Health distribution' /tmp/fleet-obs-dash.html \
		|| { echo "fleet-obs-smoke: /debug/dash missing the health chart"; exit 1; }; \
	curl -fsS http://$(FLEET_OBS_ADDR)/metrics | grep -q 'dvfsd_fleet_devices' \
		|| { echo "fleet-obs-smoke: fleet gauges missing from /metrics"; exit 1; }; \
	echo "fleet-obs-smoke: ingest, dashboard, snapshot, and gauges all live"; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit 0

# Live-telemetry smoke: boot dvfsd, drive traffic through the API,
# then assert the embedded dashboard renders its charts and the
# /v1/events SSE endpoint streams at least one decision event.
DASH_ADDR ?= 127.0.0.1:8094

dash-smoke:
	go build -o bin/dvfsd ./cmd/dvfsd
	go build -o bin/dvfsload ./cmd/dvfsload
	@./bin/dvfsd -addr $(DASH_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/dvfsload -addr http://$(DASH_ADDR) -workload sha -train -train-jobs 80 \
		-jobs 50 -conns 4 > /dev/null || exit 1; \
	curl -fsS http://$(DASH_ADDR)/debug/dash | grep -q '<svg' \
		|| { echo "dash-smoke: /debug/dash has no charts"; exit 1; }; \
	curl -sN --max-time 5 "http://$(DASH_ADDR)/v1/events?last=5" 2>/dev/null | grep -q -m1 'event: decision' \
		|| { echo "dash-smoke: /v1/events streamed no events"; exit 1; }; \
	echo "dash-smoke: dashboard renders and /v1/events streams"; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit 0

# Serving benchmark: start dvfsd, train through the API, replay a job
# stream, write BENCH_serve.json. Tunables: SERVE_JOBS, SERVE_CONNS.
SERVE_ADDR  ?= 127.0.0.1:8090
SERVE_JOBS  ?= 2000
SERVE_CONNS ?= 16

serve-bench:
	go build -o bin/dvfsd ./cmd/dvfsd
	go build -o bin/dvfsload ./cmd/dvfsload
	@./bin/dvfsd -addr $(SERVE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/dvfsload -addr http://$(SERVE_ADDR) -workload ldecode -train \
		-jobs $(SERVE_JOBS) -conns $(SERVE_CONNS) -json BENCH_serve.json; \
	status=$$?; kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit $$status

# Telemetry-history smoke: boot dvfsd with the embedded time-series
# store on a fast scrape, drive traffic, then assert GET /v1/query
# returns history, the dashboard renders a windowed history chart,
# and — after a SIGKILL — dvfstsdb recovers the store offline.
TSDB_ADDR ?= 127.0.0.1:8096

tsdb-smoke:
	go build -o bin/dvfsd ./cmd/dvfsd
	go build -o bin/dvfsload ./cmd/dvfsload
	go build -o bin/dvfstsdb ./cmd/dvfstsdb
	@dir=$$(mktemp -d); \
	./bin/dvfsd -addr $(TSDB_ADDR) -tsdb-scrape 100ms -tsdb-dir $$dir/tsdb -tsdb-block 1s & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
	./bin/dvfsload -addr http://$(TSDB_ADDR) -workload sha -train -train-jobs 60 \
		-jobs 40 -conns 2 > /dev/null || exit 1; \
	sleep 3; \
	curl -fsS "http://$(TSDB_ADDR)/v1/query?metric=dvfsd_requests_total&from=-5m" \
		| grep -q '"points":\[{' \
		|| { echo "tsdb-smoke: /v1/query returned no history"; exit 1; }; \
	curl -fsS "http://$(TSDB_ADDR)/debug/dash?window=15m" | grep -q 'tschart' \
		|| { echo "tsdb-smoke: dashboard window rendered no history chart"; exit 1; }; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	./bin/dvfstsdb -dir $$dir/tsdb | grep -q 'go_goroutines' \
		|| { echo "tsdb-smoke: offline recovery found no history"; exit 1; }; \
	echo "tsdb-smoke: query API, dashboard history, and crash recovery all live"; \
	rm -rf $$dir; exit 0

# Alerting smoke: boot dvfsd with a fast scrape, an energy budget, and
# a crash-safe incident journal; ingest fleet events with inflated
# residuals until the built-in model_stale rule fires, check the
# /v1/alerts snapshot, the incident timeline on /debug/dash, the
# firing-span overlay on the dashboard history charts, and the
# alert/energy/drift Prometheus metrics; then ingest healthy events
# until the alert resolves and the incident closes; finally assert the
# journal recorded both transitions and dvfsd's log holds exactly one
# record per transition (the engine's), none from the drift monitor.
ALERT_ADDR ?= 127.0.0.1:8097

alert-smoke:
	go build -o bin/dvfsd ./cmd/dvfsd
	@python3 -c "import json; \
	base = {'workload': 'sha', 'device': 'd0', 'platform': 'a7', 'predicted': True, \
	        'level': 2, 'from_level': 2, 'predicted_exec_sec': 0.04, \
	        'predictor_sec': 0.001, 'done': True}; \
	bad = [dict(base, seq=i + 1, job=i, time_sec=round(0.1 * i, 3), \
	            actual_exec_sec=0.05, residual_sec=0.01) for i in range(120)]; \
	good = [dict(base, seq=121 + i, job=120 + i, time_sec=round(12.0 + 0.1 * i, 3), \
	             actual_exec_sec=0.04, residual_sec=-0.001) for i in range(420)]; \
	open('/tmp/alert-bad.jsonl', 'w').write(''.join(json.dumps(e) + chr(10) for e in bad)); \
	open('/tmp/alert-good.jsonl', 'w').write(''.join(json.dumps(e) + chr(10) for e in good))"
	@dir=$$(mktemp -d); \
	./bin/dvfsd -addr $(ALERT_ADDR) -tsdb-scrape 100ms -energy-budget 0.001 \
		-incident-log $$dir/incidents.jsonl 2> $$dir/dvfsd.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(ALERT_ADDR)/healthz > /dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -fsS --data-binary @/tmp/alert-bad.jsonl http://$(ALERT_ADDR)/v1/fleet/ingest > /dev/null \
		|| { echo "alert-smoke: bad-residual ingest failed"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(ALERT_ADDR)/v1/alerts | grep -q '"state":"firing"' && break; sleep 0.1; \
	done; \
	curl -fsS http://$(ALERT_ADDR)/v1/alerts | python3 -c "import json, sys; \
	s = json.load(sys.stdin); \
	assert any(a['rule'] == 'model_stale' and a['state'] == 'firing' for a in s['active']), s['active']; \
	assert any(i['rule'] == 'model_stale' and not i.get('end_ms') for i in s['incidents']), s['incidents']; \
	assert any(r['name'] == 'energy_budget_burn' for r in s['rules']), s['rules']" \
		|| { echo "alert-smoke: model_stale did not fire"; exit 1; }; \
	curl -fsS http://$(ALERT_ADDR)/debug/dash > /tmp/alert-dash.html; \
	grep -q 'model_stale' /tmp/alert-dash.html && grep -q 'Incidents' /tmp/alert-dash.html \
		|| { echo "alert-smoke: /debug/dash missing the incident timeline"; exit 1; }; \
	curl -fsS http://$(ALERT_ADDR)/metrics > /tmp/alert-metrics.txt; \
	grep -q 'dvfsd_alerts_firing' /tmp/alert-metrics.txt \
		&& grep -q 'dvfsd_energy_joules_total' /tmp/alert-metrics.txt \
		|| { echo "alert-smoke: alert/energy metrics missing"; exit 1; }; \
	grep -q 'dvfsd_model_under_rate' /tmp/alert-metrics.txt \
		|| { echo "alert-smoke: drift under-prediction rate missing from /metrics"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS "http://$(ALERT_ADDR)/debug/dash?window=15m" | grep -q 'class="firing"' && break; sleep 0.1; \
	done; \
	curl -fsS "http://$(ALERT_ADDR)/debug/dash?window=15m" | grep -q 'class="firing"' \
		|| { echo "alert-smoke: no firing-span overlay on the history charts"; exit 1; }; \
	curl -fsS --data-binary @/tmp/alert-good.jsonl http://$(ALERT_ADDR)/v1/fleet/ingest > /dev/null \
		|| { echo "alert-smoke: healthy ingest failed"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(ALERT_ADDR)/v1/alerts | python3 -c "import json, sys; \
	s = json.load(sys.stdin); \
	ok = not any(a['rule'] == 'model_stale' and a['state'] == 'firing' for a in s['active']) \
	     and any(i['rule'] == 'model_stale' and i.get('end_ms') for i in s['incidents']); \
	sys.exit(0 if ok else 1)" && break; sleep 0.1; \
	done; \
	curl -fsS http://$(ALERT_ADDR)/v1/alerts | python3 -c "import json, sys; \
	s = json.load(sys.stdin); \
	assert not any(a['rule'] == 'model_stale' and a['state'] == 'firing' for a in s['active']), s['active']; \
	assert any(i['rule'] == 'model_stale' and i.get('end_ms') for i in s['incidents']), s['incidents']" \
		|| { echo "alert-smoke: model_stale did not resolve"; exit 1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	grep -q '"to":"firing"' $$dir/incidents.jsonl && grep -q '"to":"resolved"' $$dir/incidents.jsonl \
		|| { echo "alert-smoke: incident journal missing transitions"; exit 1; }; \
	test "$$(grep -c 'rule=model_stale' $$dir/dvfsd.log)" = 2 \
		&& grep 'rule=model_stale' $$dir/dvfsd.log | head -n 1 | grep -q 'msg="ALERT firing"' \
		&& grep 'rule=model_stale' $$dir/dvfsd.log | tail -n 1 | grep -q 'msg="ALERT resolved"' \
		|| { echo "alert-smoke: want one firing and one resolved model_stale log record"; cat $$dir/dvfsd.log; exit 1; }; \
	! grep -q 'prediction model' $$dir/dvfsd.log \
		|| { echo "alert-smoke: the drift monitor logged its own alert"; exit 1; }; \
	echo "alert-smoke: fire, timeline, overlay, resolve, journal, and one log record per transition all live"; \
	rm -rf $$dir; exit 0

# Telemetry-store benchmark: simulate a decision trace, replay it
# through the scrape path into the store, and gate on the acceptance
# numbers — compression ≥ 8x vs raw 16-byte points, zero allocations
# per append, 1h/1s range query under 10ms. Writes BENCH_tsdb.json.
tsdb-bench:
	go build -o bin/dvfssim ./cmd/dvfssim
	go build -o bin/dvfstsdb ./cmd/dvfstsdb
	./bin/dvfssim -workload sha -governor prediction -jobs 3000 -trace /tmp/tsdb-bench.jsonl > /dev/null
	./bin/dvfstsdb -bench -trace /tmp/tsdb-bench.jsonl -out BENCH_tsdb.json
	@python3 -c "import json; \
doc = json.load(open('BENCH_tsdb.json')); \
assert doc['compression_vs_raw16'] >= 8, \
    f\"tsdb-bench: compression {doc['compression_vs_raw16']:.2f}x below the 8x floor\"; \
assert doc['append_allocs_per_op'] == 0, \
    f\"tsdb-bench: append allocates {doc['append_allocs_per_op']}/op\"; \
assert doc['query_1h_1s_ms'] < 10, \
    f\"tsdb-bench: 1h/1s query took {doc['query_1h_1s_ms']:.2f}ms (floor 10ms)\"; \
print(f\"tsdb-bench: {doc['bytes_per_sample']:.2f} B/sample \" \
      f\"({doc['compression_vs_raw16']:.1f}x vs raw16), \" \
      f\"append {doc['append_ns_per_op']:.0f} ns/op {doc['append_allocs_per_op']:.0f} allocs, \" \
      f\"1h/1s query {doc['query_1h_1s_ms']:.2f}ms\")"
