#!/usr/bin/env bash
# Builds the benchmark runner and twserve from this checkout's source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build product, cache and
# server store stays under .bench_build/ (or $CARGO_TARGET_DIR, when
# set) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/twserve" repro/cmd/twserve)
exec "$out/perfbench" -twserve "$out/twserve" -work "$out/runs" "$@"
