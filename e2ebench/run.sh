#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# arguments given, from the repository root:
#
#   bash e2ebench/run.sh --workload http-social --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, binary,
# results, traces) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
