#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash bench/run.sh                                   # every workload, tables + JSON
#   bash bench/run.sh --workload azure-stream --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -compare parent.json change.json
#
# The binary, the Go build cache and default result files stay under
# .bench_build/ so nothing is written outside the checkout. The build needs
# the parent module (../go.mod); without it the build fails and so does this
# script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/paldia-bench" .
cd "$root"
exec "$out/paldia-bench" "$@"
