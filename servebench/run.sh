#!/usr/bin/env bash
# Builds trajserve and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload ingest-fleet --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh compare BEFORE_DIR AFTER_DIR
#
# Run it from the repository root. Everything the build and the runs
# write stays under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/trajserve" || ! -d "$root/servebench" ]]; then
	echo "servebench: run from the trajsim repository root (no go.mod, cmd/trajserve or servebench here)" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"

# Keep the Go toolchain's caches, config and temporary files inside the
# checkout, and never reach for the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -o "$out/trajserve" ./cmd/trajserve
go build -o "$out/servebench" ./servebench

if [[ "${1:-}" == "compare" ]]; then
	shift
	exec "$out/servebench" compare -benchmark "$root/BENCHMARK.json" "$@"
fi
exec "$out/servebench" -trajserve "$out/trajserve" -work "$out" "$@"
