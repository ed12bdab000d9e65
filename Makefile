# Local mirror of .github/workflows/ci.yml's correctness gate: `make
# check` runs gofmt, vet, build, the race-enabled tests, perfbench's
# vet and short tests, the goldens, lint and the alloc gate. The tests
# include every end-to-end check CI runs (the CLI tests in
# cli_test.go boot the binaries and the daemon); check leaves out only
# CI's bench gates (obs-, replay-, fleet- and tsdb-bench), its
# one-iteration benchmark runs and the two 20 s fuzz steps
# (FuzzPredictRequest and FuzzProgramJSON).

.PHONY: check fmt vet build test perfbench-check lint alloc-gate golden bench serve-bench obs-bench replay-bench fleet-bench tsdb-bench

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
# core decision path, span capture, the feature hash, and a
# task-program run of every workload form. Run
# without -race — the detector's instrumentation allocates, so these
# tests skip themselves under it.
alloc-gate:
	go test -count=1 -run 'TestPredictTraceZeroAlloc' ./internal/core
	go test -count=1 -run 'TestLoweredRunAllocs' ./internal/taskir
	go test -count=1 -run 'TestSpanCaptureZeroAlloc|TestFeatureHashZeroAlloc|TestSketchAddZeroAlloc' ./internal/obs
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
# Like the other bench recipes, it keeps its scratch files in a fresh
# temporary directory that is removed on exit, so two checkouts can
# run it at once.
obs-bench:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go test -c -o $$tmp/obs-bench.test ./internal/obs || exit 1; \
	rounds=5; \
	for round in $$(seq $$rounds); do \
		$$tmp/obs-bench.test -test.run '^$$' -test.bench '^BenchmarkTracerEmit' -test.benchtime 300ms \
			-test.benchmem | grep '^Benchmark' | tee -a $$tmp/obs-bench.out; \
	done; \
	python3 -c "import re, statistics, sys; \
rounds = int(sys.argv[1]); \
runs = re.findall(r'^BenchmarkTracerEmit(\w*?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op', open(sys.argv[2]).read(), re.M); \
assert len(runs) == 2 * rounds, f'obs-bench: want {rounds} runs of each of 2 benchmarks, got {len(runs)} runs'; \
base, full = (statistics.median(float(ns) for name, ns in runs if name == b) for b in ('', 'Spans')); \
fails = [msg for bad, msg in ( \
    (base >= 1000, f'emit median {base:.0f} ns/op exceeds the 1000 ns/op budget'), \
    (full >= 1000, f'full span capture median {full:.0f} ns/op exceeds the 1000 ns/op budget')) if bad]; \
assert not fails, 'obs-bench: ' + '; '.join(fails); \
print(f'obs-bench: medians of {rounds} rounds: emit {base:.0f}, +spans {full:.0f} ns/op, within budget')" $$rounds $$tmp/obs-bench.out

# Replay benchmark: seeded ldecode trace → BENCH_replay.json, compared
# against the committed baseline (fails on >5% energy / >5-point miss
# regression). Regenerate the baseline by copying the fresh document.
replay-bench:
	go build -o bin/dvfssim ./cmd/dvfssim
	go build -o bin/dvfsreplay ./cmd/dvfsreplay
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	./bin/dvfssim -workload ldecode -governor prediction -jobs 200 -seed 1 -trace $$tmp/replay-bench.jsonl && \
	./bin/dvfsreplay -input $$tmp/replay-bench.jsonl -seed 1 -json BENCH_replay.new.json \
		-baseline BENCH_replay.json -max-regress 5 > /dev/null

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
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	./bin/dvfsfleet -devices $(FLEET_BENCH_DEVICES) -platforms a7,x86 \
		-workload-mix sha:3,rijndael:1 -jobs 10 -seed 42 -progress 0 \
		-out $$tmp/fleet-bench.bin -bench BENCH_fleet.new.json > /dev/null || exit 1; \
	gover=$$(go env GOVERSION); \
	t0=$$(date +%s%N); \
	./bin/dvfsreplay -input $$tmp/fleet-bench.bin -workers 1 > $$tmp/fleet-replay-w1.txt; \
	t1=$$(date +%s%N); \
	./bin/dvfsreplay -input $$tmp/fleet-bench.bin -workers $(FLEET_REPLAY_WORKERS) > $$tmp/fleet-replay-wn.txt; \
	t2=$$(date +%s%N); \
	cmp $$tmp/fleet-replay-w1.txt $$tmp/fleet-replay-wn.txt \
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

# Serving benchmark: start dvfsd, train through the API, replay a job
# stream, write BENCH_serve.new.json. Tunables: SERVE_JOBS,
# SERVE_CONNS. Re-record the committed BENCH_serve.json by copying the
# fresh document.
SERVE_ADDR  ?= 127.0.0.1:8090
SERVE_JOBS  ?= 2000
SERVE_CONNS ?= 16

serve-bench:
	go build -o bin/dvfsd ./cmd/dvfsd
	go build -o bin/dvfsload ./cmd/dvfsload
	@./bin/dvfsd -addr $(SERVE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/dvfsload -addr http://$(SERVE_ADDR) -workload ldecode -train \
		-jobs $(SERVE_JOBS) -conns $(SERVE_CONNS) -json BENCH_serve.new.json; \
	status=$$?; kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit $$status

# Telemetry-store benchmark: simulate a decision trace, replay it
# through the scrape path into the store, and gate on the acceptance
# numbers — compression ≥ 8x vs raw 16-byte points, zero allocations
# per append, 1h/1s range query under 10ms. Writes
# BENCH_tsdb.new.json; re-record the committed BENCH_tsdb.json by
# copying the fresh document.
tsdb-bench:
	go build -o bin/dvfssim ./cmd/dvfssim
	go build -o bin/dvfstsdb ./cmd/dvfstsdb
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	./bin/dvfssim -workload sha -governor prediction -jobs 3000 -trace $$tmp/tsdb-bench.jsonl > /dev/null && \
	./bin/dvfstsdb -bench -trace $$tmp/tsdb-bench.jsonl -out BENCH_tsdb.new.json
	@python3 -c "import json; \
doc = json.load(open('BENCH_tsdb.new.json')); \
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
