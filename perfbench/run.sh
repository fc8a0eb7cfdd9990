#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload sim-million --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temp files, Go's own config and telemetry directory,
# and the binary all live under .bench_build/ in the checkout, so the run
# writes nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
