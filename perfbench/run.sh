#!/usr/bin/env bash
# Builds dvfsd and the benchmark harness from this checkout's sources,
# then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the directory the script is run from.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f "$here/../go.mod" || ! -d "$here/../cmd/dvfsd" ]]; then
	echo "run.sh: no dvfsd sources beside $here; run it from a full checkout" >&2
	exit 1
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env
# file inside the checkout too. Telemetry is switched off there: in
# its default mode the go command starts a detached upload process
# that would outlive this script.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here/.." && go build -buildvcs=false -o "$out/bin/dvfsd" ./cmd/dvfsd) >&2
(cd "$here" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -dvfsd "$out/bin/dvfsd" -workdir "$out" "$@"
