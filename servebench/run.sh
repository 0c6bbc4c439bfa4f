#!/usr/bin/env bash
# Builds the serving-path benchmark from the checkout's sources and runs
# it with the given arguments, from the root of the checkout:
#
#   bash servebench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
