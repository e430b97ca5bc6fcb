#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into the
# checkout's .bench_build directory and run it there. Everything the Go
# toolchain writes (build cache, temporary files, the binary) stays inside
# the checkout; nothing is fetched.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$build/ulpbench" ./bench
exec "$build/ulpbench" "$@"
