#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root,
# passing every argument through (see bench/README.md):
#
#   bash bench/run.sh -workload link -seed 1 -seconds 10 -trace 0
#
# Go's build cache, module cache, temporary files and telemetry go under
# .bench_build, so a run writes nothing outside the checkout, and no
# module is ever fetched.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" -root "$root" "$@"
