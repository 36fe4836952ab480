#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through:
#
#   bash bench/run.sh --workload serve-sample --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a checkout. The build cache, the binary and all
# temporary files stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0 TMPDIR="$out/tmp"
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
