#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload chain-fast --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs and the Go build cache
# stay in .bench_build; the traced run writes its spans there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command's caches, GOPATH and config (telemetry included) stay in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
