#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's
# sources and run it, keeping every file the build writes (Go's build
# cache included) inside the checkout, under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/xdb-bench" ./bench
exec "$build/xdb-bench" "$@"
