#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Everything the
# build writes (binary, Go build cache, temporary files, the go command's
# telemetry counters, which go to the user configuration directory) stays
# under .bench_build in the checkout; a second build of unchanged sources is
# a cache hit of well under a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/mrbench" .
exec "$build/mrbench" "$@"
