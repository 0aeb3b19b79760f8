#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload serve-narrow --seed 1 --seconds 10 --trace 0
#
# All build state (Go build cache, binary) and run state (jobs directories,
# checkpoints, CSV shards) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/bench" build -buildvcs=false -o "$out/autodetect-bench" .
cd "$root"
exec "$out/autodetect-bench" "$@"
