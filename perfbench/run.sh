#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload topology --seed 0 --seconds 20 --trace 0
# Everything the build writes (binary, Go build cache) stays under
# ${CARGO_TARGET_DIR:-.bench_build} in the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Keep the go command's cache, module path and config (telemetry) in the
# checkout, offline, and on the installed toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
