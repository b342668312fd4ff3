#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#   bash perfbench/run.sh --workload oltp-p8 --seed 1 --seconds 30 --trace 0
# The Go build cache, the go command's config and telemetry, and the
# binary all live in .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
