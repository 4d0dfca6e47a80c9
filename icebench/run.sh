#!/usr/bin/env bash
# Builds the ICE gateway benchmark from this checkout's sources and
# runs one workload. Run it from the repository root:
#
#   bash icebench/run.sh --workload echem_paced --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every run's state stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	GOPROXY=off GOWORK=off
(cd "$root/icebench" && go build -o "$out/icebench" .)
exec "$out/icebench" "$@"
