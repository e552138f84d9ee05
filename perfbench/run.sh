#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it sits in
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solo-paper --seed 7 --seconds 30 --trace 0
#
# Everything it writes stays under .bench_build in the repository root:
# the Go build cache, the binary, the run's scratch files and the go
# command's telemetry counters (kept under the user config directory).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" "$@"
