#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from source into the
# checkout's .bench_build directory (Go caches included, so nothing is
# written outside the checkout) and run it from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -C "$here" -o "$build/pipebench" .
cd "$root"
exec "$build/pipebench" "$@"
