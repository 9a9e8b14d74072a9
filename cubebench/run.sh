#!/usr/bin/env bash
# Builds the cube benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash cubebench/run.sh --workload build|serve|mixed --seed N --seconds S --trace 0|1
#
# The Go build cache and the binary live in .bench_build under the
# current directory, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

go -C "$(dirname "$0")" build -o "$out/cubebench" .
exec "$out/cubebench" "$@"
