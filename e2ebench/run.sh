#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, e.g. from the repository root:
#
#   bash e2ebench/run.sh --workload smallfiles-tar --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under the
# checkout in $CARGO_TARGET_DIR (default .bench_build); the benchmark writes
# its images and traces under .bench_out.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$build/e2ebench" . >&2
exec "$build/e2ebench" "$@"
