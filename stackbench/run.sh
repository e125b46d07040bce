#!/usr/bin/env bash
# Builds the stackbench command from source and runs it with the given
# arguments, e.g.
#
#   bash stackbench/run.sh --workload snb-bi --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files) goes under .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"

go -C "$here" build -o "$build/stackbench-bin" .
exec "$build/stackbench-bin" "$@"
