#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness and the eendd
# daemon from source into .bench_build/ (Go build cache included, so nothing
# is written outside the checkout), then hands every argument to the harness.
# Run from the root of a checkout: bash bench/run.sh --workload <name> ...
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
# Everything the go command writes (build cache, module cache, its telemetry
# counters under the user config directory, its work directories under the
# temp directory) is pointed into .bench_build/.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
mkdir -p "$out/bin" "$out/tmp"

(cd "$root/bench" && go build -o "$out/bin/eend-bench" .)
(cd "$root" && go build -o "$out/bin/eendd" ./cmd/eendd)

exec "$out/bin/eend-bench" "$@"
