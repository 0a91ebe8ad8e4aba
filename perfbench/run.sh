#!/usr/bin/env bash
# Builds the benchmark and the daemon from the checkout it is run in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
go build -o "$build/xmlconsistd" ./cmd/xmlconsistd >&2
exec "$build/perfbench" -root "$root" -daemon-bin "$build/xmlconsistd" "$@"
