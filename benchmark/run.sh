#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Everything the build leaves behind stays in .bench_build at the
# root of the checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# GOPATH and XDG_CONFIG_HOME keep the go command's module cache and its
# telemetry counters inside the checkout too.
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
