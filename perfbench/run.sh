#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it; every argument is
# passed through (see main.go for the flags). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-live --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and all workload state stay under
# .bench_build/ in the working directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
