#!/usr/bin/env bash
# Builds the benchmark and the dewrite-serve daemon from this checkout's
# source, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload sim-dedup --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh                  # every workload, summary table
#
# Everything the Go toolchain writes (build cache, temporary files, settings)
# stays under .bench_build/ in the checkout, and the toolchain is kept
# offline: the module has no dependencies outside this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false

(cd "$root/benchmark" &&
	go build -o "$out/dewrite-bench-run" . &&
	go build -o "$out/dewrite-serve" dewrite/cmd/dewrite-serve)

exec "$out/dewrite-bench-run" --daemon "$out/dewrite-serve" "$@"
