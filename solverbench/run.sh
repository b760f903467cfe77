#!/usr/bin/env bash
# Builds solverd and the benchmark from source, then runs the benchmark.
# Run from anywhere; arguments go to solverbench, for example:
#
#   bash solverbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#   bash solverbench/run.sh --workload all
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
{
	go build -o "$out/solverd" ./cmd/solverd
	(cd solverbench && go build -o "$out/solverbench" .)
} >&2
exec "$out/solverbench" -solverd "$out/solverd" -spans "$out/spans" "$@"
