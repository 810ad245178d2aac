#!/usr/bin/env bash
# Builds evaxd and the benchmark from this checkout into .bench_build, then
# runs one benchmark invocation with the given arguments. Run it from the
# checkout root:
#
#   bash perfbench/run.sh --workload paced --seed 1 --seconds 20 --trace 0
#
# Every Go cache and temporary file stays inside .bench_build, and the build
# never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off CGO_ENABLED=0

go build -o "$out/evaxd" ./cmd/evaxd
(cd perfbench && go build -o "$out/perfbench" ./cmd/perfbench)
exec "$out/perfbench" -root "$root" -evaxd "$out/evaxd" "$@"
