#!/bin/bash
# Entry point named by BENCHMARK.json. Builds blobseer-blast from source
# and runs one workload, keeping everything it reads or writes — Go's
# build and module caches, temporary files, cluster data — under
# .bench_build in the checkout. Arguments are passed through:
#
#   bash cmd/blobseer-blast/run.sh --workload scan_cold --seed 1 --seconds 16 --trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$here/../.." && pwd)/.bench_build
mkdir -p "$build/tmp" "$build/data"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters

(cd "$here" && go build -o "$build/blobseer-blast" .)
exec "$build/blobseer-blast" -dir "$build/data" "$@"
