#!/usr/bin/env bash
# Builds streamcountd and the benchmark program from the checkout it is run in,
# then runs the benchmark with the given arguments. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload insertion-count --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/streamcountd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a streamcount checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/streamcountd" ./cmd/streamcountd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/streamcountd" -workdir "$out" "$@"
